#pragma once
// A logical tablet server: the write/scan traffic routed to the tablets
// the Instance assigns it. In real Accumulo these are separate
// processes; here they are in-process shards that give the batch
// scanner its parallelism domain and the ingest benchmarks their
// scaling axis. A server holds no reference to its tablets — the
// owning Table does — so a split or dropped table frees them.
//
// Traffic counters live in the global MetricsRegistry (labeled per
// server) rather than in hand-rolled atomics; ServerStats is a view
// over those series. Each TabletServer object gets a process-unique
// `uid` label so servers of different Instances never alias a series
// — stats() on a fresh Instance always starts from zero.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "nosql/tablet.hpp"
#include "obs/metrics.hpp"

namespace graphulo::nosql {

/// Cumulative traffic counters for one server (a point-in-time view
/// over the registry series).
struct ServerStats {
  std::size_t entries_written = 0;
  std::size_t mutations_applied = 0;
  std::size_t scans_started = 0;
};

namespace detail {
/// Process-unique id for metric labels: distinct from the Instance's
/// dense server id, which repeats across Instances.
inline std::uint64_t next_server_uid() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

class TabletServer {
 public:
  explicit TabletServer(int id)
      : id_(id),
        labels_({{"server", std::to_string(id)},
                 {"uid", std::to_string(detail::next_server_uid())}}),
        entries_written_(obs::MetricsRegistry::global().counter(
            "server.entries.total", "Cell updates written through a server",
            labels_)),
        mutations_applied_(obs::MetricsRegistry::global().counter(
            "server.mutations.total", "Mutations applied through a server",
            labels_)),
        scans_started_(obs::MetricsRegistry::global().counter(
            "server.scans.total", "Scan stacks opened through a server",
            labels_)) {}

  int id() const noexcept { return id_; }

  /// Applies a mutation to an assigned tablet, updating traffic counters.
  void apply(Tablet& tablet, const Mutation& mutation, Timestamp ts) {
    tablet.apply(mutation, ts);
    entries_written_.inc(mutation.updates().size());
    mutations_applied_.inc();
  }

  /// Builds a scan stack for an assigned tablet, counting the scan.
  IterPtr scan(const Tablet& tablet) {
    scans_started_.inc();
    return tablet.scan_stack();
  }

  ServerStats stats() const {
    return {static_cast<std::size_t>(entries_written_.value()),
            static_cast<std::size_t>(mutations_applied_.value()),
            static_cast<std::size_t>(scans_started_.value())};
  }

 private:
  int id_;
  obs::Labels labels_;
  obs::Counter& entries_written_;
  obs::Counter& mutations_applied_;
  obs::Counter& scans_started_;
};

}  // namespace graphulo::nosql
