#pragma once
// TableMultDataPlane: where the TableMult pipeline reads and writes.
//
// The partitioned merge join of tablemult.cpp is agnostic to whether
// its scans and writers touch a local Instance or cross process
// boundaries — it needs exactly four capabilities: consistent read
// views it can open range scans through, per-partition mutation sinks,
// a way to cut the row space, and table setup/compaction. This
// interface names those capabilities; LocalDataPlane implements them
// over an Instance (the default path, used by table_mult(db, ...)),
// and distributed::ClusterDataPlane implements them over RPC so the
// same kernel runs against a fleet of tablet-server processes.
//
// Exactly-once across partition retries is one mechanism on both
// planes: partition p of a write session writes writer stream
// "tm/<nonce>/<p>", every mutation carries its (writer id, sequence
// number), and the table it lands in skips a sequence number below
// that stream's high-water mark (nosql::Instance::apply's dedup
// overload — called by the local BatchWriter directly and by the
// tablet service for each remote write batch). A retried partition
// re-opens the same index, resends its deterministic stream from
// sequence 0, and only the unapplied suffix lands. The kernel keeps no
// count of what landed.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nosql/iterator.hpp"
#include "nosql/mutation.hpp"
#include "util/fault.hpp"

namespace graphulo::nosql {
class Instance;
}

namespace graphulo::core {

class TableMultDataPlane {
 public:
  /// A pinned, consistent read view over a set of tables: every
  /// open_scan through one view (across all partitions and retries)
  /// sees the same cut of each table.
  class ReadView {
   public:
    virtual ~ReadView() = default;

    /// Seeked iterator over `range` of `table` (one of the tables the
    /// view was opened over).
    virtual nosql::IterPtr open_scan(const std::string& table,
                                     const nosql::Range& range) = 0;
  };

  /// One multiply's write fan-out into the result table: each
  /// partition opens its writer by index, and a retried partition
  /// re-opens the SAME index so exactly-once sinks can dedup the
  /// resent stream.
  class WriteSession {
   public:
    virtual ~WriteSession() = default;

    virtual std::unique_ptr<nosql::MutationSink> open_writer(
        std::size_t partition) = 0;

    /// Every session's sinks dedup resent streams (see file comment),
    /// so both planes return true and the kernel no longer asks. The
    /// method goes with the next change to this interface.
    virtual bool exactly_once() const noexcept = 0;
  };

  virtual ~TableMultDataPlane() = default;

  virtual bool table_exists(const std::string& table) = 0;

  /// Creates `table` if missing. With `sum_combiner` it is configured
  /// as a TableMult result sink (versioning off, summing combiner at
  /// every scope); otherwise default config. No-op when it exists,
  /// except that with `sum_combiner` an existing table lacking the
  /// summing combiner is an error. TableMult always passes true: its
  /// partitions pre-sum, so C must sum too.
  virtual void ensure_table(const std::string& table, bool sum_combiner) = 0;

  /// Opens one consistent cut of `tables`. Both planes ignore
  /// `snapshot_isolation`: the local plane always pins snapshots, the
  /// cluster plane gives per-scan cuts. TableMult passes true; the bool
  /// goes with the next change to this interface.
  virtual std::unique_ptr<ReadView> open_read_view(
      const std::vector<std::string>& tables, bool snapshot_isolation) = 0;

  virtual std::unique_ptr<WriteSession> open_write_session(
      const std::string& table) = 0;

  /// Up to `pieces - 1` interior row boundaries cutting `table`'s row
  /// space into contiguous chunks (tablet splits / sampled keys).
  virtual std::vector<std::string> partition_rows(const std::string& table,
                                                  std::size_t pieces) = 0;

  virtual void compact(const std::string& table) = 0;

  /// Retry budget for the plane's control-plane calls (setup,
  /// partitioning, snapshot open).
  virtual util::RetryPolicy retry_policy() const = 0;
};

/// Opens a sink writing writer stream `writer_id` into a session's table.
using StreamWriterFactory = std::function<std::unique_ptr<nosql::MutationSink>(
    const std::string& writer_id)>;

/// The write session of both planes: partition p writes stream
/// "tm/<nonce>/<p>" through `open`, and a retried partition reopens the
/// same id (see file comment). Nonces come from one process-wide
/// counter with a random start, so two multiplies (or two client
/// processes) never share a stream in the table they write.
std::unique_ptr<TableMultDataPlane::WriteSession> stream_write_session(
    StreamWriterFactory open);

/// The default plane: everything against one in-process Instance.
class LocalDataPlane : public TableMultDataPlane {
 public:
  explicit LocalDataPlane(nosql::Instance& db) : db_(db) {}

  bool table_exists(const std::string& table) override;
  void ensure_table(const std::string& table, bool sum_combiner) override;
  std::unique_ptr<ReadView> open_read_view(
      const std::vector<std::string>& tables,
      bool snapshot_isolation) override;
  std::unique_ptr<WriteSession> open_write_session(
      const std::string& table) override;
  std::vector<std::string> partition_rows(const std::string& table,
                                          std::size_t pieces) override;
  void compact(const std::string& table) override;
  util::RetryPolicy retry_policy() const override;

  nosql::Instance& instance() noexcept { return db_; }

 private:
  nosql::Instance& db_;
};

}  // namespace graphulo::core
