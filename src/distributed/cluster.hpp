#pragma once
// distributed::Cluster — the client library of the distributed mode.
//
// A Cluster is a static range-partitioned view of N tablet-server
// processes (graphulo_tsd daemons): server i owns rows in
// [boundaries[i-1], boundaries[i]) with the outer sides unbounded. It
// pools one connection per server (mutex-serialized — RpcClient is not
// thread-safe) and wraps control-plane calls in with_retries, so a
// dropped connection or a shed request retries exactly like a local
// transient fault.
//
// The two data surfaces implement the EXISTING process-local
// interfaces, which is what lets the TableMult kernel run unchanged
// against a fleet:
//
//   scan()    -> nosql::SortedKVIterator walking every owning server in
//               boundary order through leased, resumable remote scans.
//               A lease expiry or connection drop transparently
//               re-opens from the last delivered key.
//   writer()  -> nosql::MutationSink routing each mutation to the
//               owning server, with per-server sequence-numbered
//               batches the servers dedup — resends after lost acks
//               apply exactly once (see proto::WriteBatchRequest).
//
// ClusterDataPlane adapts a Cluster to core::TableMultDataPlane:
// table_mult(plane, ...) then scans its inputs remotely, cuts the row
// space at the cluster's server boundaries (one partition per server),
// and routes its partial products to the owning servers.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/data_plane.hpp"
#include "core/tablemult.hpp"
#include "distributed/proto.hpp"
#include "nosql/iterator.hpp"
#include "nosql/mutation.hpp"
#include "rpc/client.hpp"

namespace graphulo::distributed {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct ClusterOptions {
  rpc::ClientOptions client;
  /// Retry budget for control-plane calls and write-batch sends.
  util::RetryPolicy retry;
  /// Cells fetched per kScanContinue.
  std::uint32_t scan_batch_cells = 2048;
  /// A ClusterBatchWriter flushes when its buffered mutations exceed
  /// this estimate (bytes, across all per-server buffers).
  std::size_t writer_buffer_bytes = 1 << 20;
};

class Cluster {
 public:
  /// `boundaries` are the sorted interior row boundaries; must number
  /// exactly endpoints.size() - 1.
  Cluster(std::vector<Endpoint> endpoints, std::vector<std::string> boundaries,
          ClusterOptions options = {});

  std::size_t num_servers() const noexcept { return endpoints_.size(); }
  const std::vector<Endpoint>& endpoints() const noexcept { return endpoints_; }
  const std::vector<std::string>& boundaries() const noexcept {
    return boundaries_;
  }
  const ClusterOptions& options() const noexcept { return options_; }

  /// The server owning `row` under the static partition map.
  std::size_t owner_of_row(const std::string& row) const;

  /// The half-open row range server `i` owns.
  nosql::Range server_range(std::size_t i) const;

  /// One RPC wrapped in with_retries: transport drops reconnect and
  /// retry, kTransient/kOverloaded back off and retry, kDeadline and
  /// remote fatal errors propagate.
  std::string call(std::size_t server, rpc::Verb verb,
                   const std::string& body);

  /// One RPC, single attempt — the scan path uses this and implements
  /// its own recovery (re-open + resume) instead of blind re-sends.
  std::string call_once(std::size_t server, rpc::Verb verb,
                        const std::string& body);

  // ---- control plane (broadcast to every server) ------------------------

  void ping_all();
  void ensure_table(const std::string& table, bool sum_combiner);
  void compact(const std::string& table);
  bool table_exists(const std::string& table);
  proto::StatusResponse status(std::size_t server);

  // ---- data plane -------------------------------------------------------

  /// Seeked iterator over `range` of `table` across every owning
  /// server, in global key order. Supports re-seek.
  nosql::IterPtr scan(const std::string& table, const nosql::Range& range);

  /// Buffered exactly-once writer into `table`. `writer_id` names the
  /// dedup stream: reuse the SAME id when re-generating and resending a
  /// logical stream (e.g. a retried TableMult partition) and a FRESH id
  /// for an unrelated stream.
  std::unique_ptr<nosql::MutationSink> writer(const std::string& table,
                                              const std::string& writer_id);

 private:
  struct Conn {
    std::mutex mutex;
    std::unique_ptr<rpc::RpcClient> client;
  };

  std::vector<Endpoint> endpoints_;
  std::vector<std::string> boundaries_;
  ClusterOptions options_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Adapts a Cluster to the TableMult data plane. Read views are
/// per-scan consistent: each remote scan pins an MVCC snapshot on each
/// server for the lease's life, but there is no cross-scan (or
/// cross-server) snapshot handle over the wire — a documented non-goal
/// (DESIGN.md §14); run distributed multiplies against quiescent inputs
/// or accept per-scan cuts. Write sessions are exactly-once: each
/// multiply draws a fresh session nonce, partition p writes stream
/// "tm/<nonce>/<p>", and retried partitions resend the stream from
/// sequence 0 while the owning servers skip the applied prefix.
class ClusterDataPlane : public core::TableMultDataPlane {
 public:
  explicit ClusterDataPlane(Cluster& cluster) : cluster_(cluster) {}

  bool table_exists(const std::string& table) override;
  void ensure_table(const std::string& table, bool sum_combiner) override;
  std::unique_ptr<ReadView> open_read_view(
      const std::vector<std::string>& tables, bool snapshot_isolation) override;
  std::unique_ptr<WriteSession> open_write_session(
      const std::string& table) override;
  /// The cluster's static server boundaries, regardless of `pieces`:
  /// one partition per server aligns each partition's scans and writes
  /// with one server's ownership range.
  std::vector<std::string> partition_rows(const std::string& table,
                                          std::size_t pieces) override;
  void compact(const std::string& table) override;
  util::RetryPolicy retry_policy() const override;

 private:
  Cluster& cluster_;
};

/// C += A^T * B across the cluster's tablet servers: the core kernel
/// against a ClusterDataPlane.
core::TableMultStats table_mult(Cluster& cluster, const std::string& table_a,
                                const std::string& table_b,
                                const std::string& table_c,
                                const core::TableMultOptions& options = {});

}  // namespace graphulo::distributed
