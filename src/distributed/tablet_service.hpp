#pragma once
// TabletService: the verb semantics of one tablet-server process. The
// RPC transport (rpc::RpcServer) owns framing, deadlines and
// exception→status mapping; this class owns what each verb MEANS
// against the wrapped Instance:
//
//   kWriteBatch    exactly-once bulk apply — each (writer_id, table)
//                  stream carries sequence numbers, and each mutation
//                  goes through Instance::apply's (writer id, seq)
//                  dedup: the high-water mark lives in the table, the
//                  same one local BatchWriters with an id use, so a
//                  batch resent after a lost ack (or racing the
//                  original on another connection) skips what already
//                  applied. Admission-charged per mutation; the WAL is
//                  synced before the ack (durable acknowledgements).
//   kScanOpen /    leased, resumable scans: open pins an MVCC snapshot,
//   kScanContinue/ takes an admission scan slot (RAII ticket, held for
//   kScanClose     the lease's life), and returns a lease id; continue
//                  drains the next batch of cells and refreshes the
//                  lease TTL; a lease idle past its TTL is reaped by a
//                  background sweeper and a later continue answers
//                  kNoSuchLease — the client re-opens from its last
//                  delivered key (ScanOpenRequest::resume_after).
//   kTabletLookup  the static tablet map: this server's index, the
//                  cluster size, and the interior row boundaries.
//   kEnsureTable / table control, broadcast by clients to every server
//   kCompactTable  (each server holds its row slice of every table).
//   kStatus        counters for tests and the bench harness.
//
// Cooperative deadlines: the propagated per-call deadline is checked
// between mutations of a write batch and around scan batch fills;
// overruns throw nosql::DeadlineExceeded (wire status kDeadline).
//
// Thread-safety: handle() is called concurrently from the server's
// per-connection threads. The Instance's entry points are thread-safe;
// the service's own state (the lease table, per-table admission
// sessions) is mutex-protected; the write streams' marks are the
// tables' (see kWriteBatch). A lease is checked OUT of the table while
// a continue drains it, so concurrent continues on different leases
// never serialize on one scan.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "distributed/proto.hpp"
#include "nosql/instance.hpp"
#include "rpc/server.hpp"

namespace graphulo::distributed {

struct TabletServiceOptions {
  /// A lease not continued within this window is reaped; the client
  /// transparently re-opens with resume_after.
  std::chrono::milliseconds lease_ttl{30000};
  /// Default cells per kScanContinue when the open request passes 0.
  std::uint32_t scan_batch_cells = 2048;
  /// Sync the WAL before acking a write batch (durable acks). Leave on
  /// except in benchmarks that measure the difference.
  bool sync_wal_on_write = true;
};

class TabletService {
 public:
  /// `boundaries` are the cluster's interior row boundaries (sorted,
  /// server_count - 1 of them); this server owns rows in
  /// [boundaries[server_index - 1], boundaries[server_index]) with the
  /// outer sides unbounded.
  TabletService(nosql::Instance& db, std::vector<std::string> boundaries,
                std::uint32_t server_index, TabletServiceOptions options = {});
  ~TabletService();

  TabletService(const TabletService&) = delete;
  TabletService& operator=(const TabletService&) = delete;

  /// The rpc::RpcServer handler. Exceptions escape to the transport's
  /// status mapping (see rpc/server.hpp); statuses with no exception
  /// shape (kNoSuchTable) are returned directly.
  rpc::RpcServer::Response handle(
      rpc::Verb verb, const std::string& body,
      std::optional<std::chrono::steady_clock::time_point> deadline);

  /// Invoked whenever kEnsureTable actually creates a table, with the
  /// preset it used — the daemon persists these to its presets sidecar
  /// so recovery can recreate the config (iterator settings are code,
  /// not WAL records).
  using CreateHook =
      std::function<void(const std::string& table, const std::string& preset)>;
  void set_on_create(CreateHook hook) { on_create_ = std::move(hook); }

  /// The row range this server owns.
  nosql::Range owned_range() const;

  // Test hooks.
  std::size_t live_leases() const;
  void expire_leases_now();

 private:
  struct Lease {
    std::string table;
    std::shared_ptr<const nosql::Snapshot> snapshot;
    nosql::AdmissionController::ScanTicket ticket;
    nosql::IterPtr iter;                   ///< positioned; nullptr = drained
    std::uint32_t batch_cells = 0;
    std::chrono::steady_clock::time_point expires_at;
  };

  rpc::RpcServer::Response handle_write_batch(
      const std::string& body,
      std::optional<std::chrono::steady_clock::time_point> deadline);
  rpc::RpcServer::Response handle_scan_open(
      const std::string& body,
      std::optional<std::chrono::steady_clock::time_point> deadline);
  rpc::RpcServer::Response handle_scan_continue(
      const std::string& body,
      std::optional<std::chrono::steady_clock::time_point> deadline);
  rpc::RpcServer::Response handle_scan_close(const std::string& body);
  rpc::RpcServer::Response handle_tablet_lookup(const std::string& body);
  rpc::RpcServer::Response handle_ensure_table(const std::string& body);
  rpc::RpcServer::Response handle_compact_table(const std::string& body);
  rpc::RpcServer::Response handle_status();

  /// Shared admission session for `table` (created on first use from
  /// the table's `controller`).
  std::shared_ptr<nosql::AdmissionSession> write_session_for(
      const std::string& table, const nosql::AdmissionController& controller);

  void sweep_loop();

  nosql::Instance& db_;
  std::vector<std::string> boundaries_;
  std::uint32_t server_index_;
  TabletServiceOptions options_;
  CreateHook on_create_;

  mutable std::mutex mutex_;  ///< guards leases_, write_sessions_
  std::map<std::uint64_t, std::unique_ptr<Lease>> leases_;
  std::map<std::string, std::shared_ptr<nosql::AdmissionSession>>
      write_sessions_;
  std::atomic<std::uint64_t> next_lease_id_{1};

  std::atomic<std::uint64_t> writes_applied_{0};
  std::atomic<std::uint64_t> writes_skipped_{0};
  std::atomic<std::uint64_t> cells_scanned_{0};

  std::condition_variable sweep_cv_;
  bool stopping_ = false;  ///< guarded by mutex_
  std::thread sweeper_;
};

}  // namespace graphulo::distributed
