#pragma once
// Read path: Scanner (ordered, single range) and BatchScanner (multiple
// ranges, parallel across tablets, unordered delivery) — the Accumulo
// client read APIs Graphulo drives.

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "nosql/admission.hpp"
#include "nosql/instance.hpp"
#include "nosql/iterator.hpp"
#include "nosql/snapshot.hpp"
#include "util/threadpool.hpp"

namespace graphulo::nosql {

/// A scan-time iterator stage the client attaches for one scan only
/// (in addition to the table's configured iterators).
using ScanIterator = std::function<IterPtr(IterPtr)>;

/// Default number of cells pulled per next_block() fill by the scan
/// clients (Scanner/BatchScanner).
inline constexpr std::size_t kDefaultScanBatch = 1024;

/// Ordered scan over one range of one table.
class Scanner {
 public:
  Scanner(Instance& instance, std::string table);

  /// Restricts the scan to `range` (default: whole table).
  Scanner& set_range(Range range);

  /// Keeps only the given column families.
  Scanner& fetch_column_families(std::set<std::string> families);

  /// Restricts the scan to cells whose visibility expression these
  /// authorizations satisfy. Without this call no visibility filtering
  /// happens (the open-trust default of the simulation).
  Scanner& set_authorizations(std::set<std::string> auths);

  /// Attaches a scan-time iterator (outermost last).
  Scanner& add_scan_iterator(ScanIterator stage);

  /// Cells pulled per next_block() fill from the server-side stack
  /// (0 is taken as 1); every size, 1 included, runs the same block
  /// loop, which checks the deadline once per fill.
  Scanner& set_batch_size(std::size_t batch);

  /// Reads through a pinned MVCC snapshot (Instance::open_snapshot)
  /// instead of the live tablets: the scan sees exactly the snapshot's
  /// cut regardless of concurrent writes/compactions. The snapshot must
  /// belong to this scanner's table. nullptr returns to live reads.
  Scanner& set_snapshot(std::shared_ptr<const Snapshot> snapshot);

  /// Cooperative deadline over the whole scan: for_each throws
  /// DeadlineExceeded once it passes (checked between blocks), and a
  /// queued admission never waits beyond it. 0 = no deadline.
  Scanner& set_timeout(std::chrono::milliseconds timeout);

  /// Admission session (rate-limit identity). Defaults to a private
  /// session created on first use; share one session across clients
  /// that should share a rate budget.
  Scanner& set_session(std::shared_ptr<AdmissionSession> session);

  /// Invokes `fn` for every cell in key order. Returns cells delivered.
  /// Throws OverloadedError when admission sheds the scan and
  /// DeadlineExceeded when set_timeout's deadline passes mid-scan.
  std::size_t for_each(const std::function<void(const Key&, const Value&)>& fn);

  /// Collects all cells (bounded result sets).
  std::vector<Cell> read_all();

 private:
  IterPtr build_stack(const std::shared_ptr<Tablet>& tablet, int server_id);

  Instance& instance_;
  std::string table_;
  Range range_ = Range::all();
  std::set<std::string> families_;
  std::optional<std::set<std::string>> auths_;
  std::vector<ScanIterator> stages_;
  std::size_t batch_size_ = kDefaultScanBatch;
  std::shared_ptr<const Snapshot> snapshot_;
  std::chrono::milliseconds timeout_{0};
  std::shared_ptr<AdmissionSession> session_;
};

/// Unordered parallel scan over many ranges. Results from different
/// tablets are delivered concurrently; the callback must be thread-safe
/// (read_all() handles locking internally).
class BatchScanner {
 public:
  /// `pool` defaults to the process-global pool.
  BatchScanner(Instance& instance, std::string table,
               util::ThreadPool* pool = nullptr);

  BatchScanner& set_ranges(std::vector<Range> ranges);
  BatchScanner& fetch_column_families(std::set<std::string> families);
  BatchScanner& set_authorizations(std::set<std::string> auths);
  BatchScanner& add_scan_iterator(ScanIterator stage);

  /// Cells pulled per next_block() fill from each tablet stack (see
  /// Scanner::set_batch_size).
  BatchScanner& set_batch_size(std::size_t batch);

  /// Reads every range through a pinned MVCC snapshot (see
  /// Scanner::set_snapshot). nullptr returns to live reads.
  BatchScanner& set_snapshot(std::shared_ptr<const Snapshot> snapshot);

  /// Cooperative deadline over the whole multi-range scan (see
  /// Scanner::set_timeout). 0 = no deadline.
  BatchScanner& set_timeout(std::chrono::milliseconds timeout);

  /// Admission session (see Scanner::set_session). One BatchScanner
  /// for_each = one admitted scan operation, however many tablet tasks
  /// it fans out to.
  BatchScanner& set_session(std::shared_ptr<AdmissionSession> session);

  /// Invokes `fn(key, value)` for every cell of every range; cells of
  /// one (tablet, range) task arrive in order, tasks interleave
  /// arbitrarily. `fn` must be thread-safe. Returns cells delivered.
  /// Throws OverloadedError when admission sheds the scan and
  /// DeadlineExceeded when set_timeout's deadline passes mid-scan.
  std::size_t for_each(const std::function<void(const Key&, const Value&)>& fn);

  /// Collects all cells, unordered.
  std::vector<Cell> read_all();

 private:
  Instance& instance_;
  std::string table_;
  util::ThreadPool* pool_;
  std::vector<Range> ranges_ = {Range::all()};
  std::set<std::string> families_;
  std::optional<std::set<std::string>> auths_;
  std::vector<ScanIterator> stages_;
  std::size_t batch_size_ = kDefaultScanBatch;
  std::shared_ptr<const Snapshot> snapshot_;
  std::chrono::milliseconds timeout_{0};
  std::shared_ptr<AdmissionSession> session_;
};

}  // namespace graphulo::nosql
