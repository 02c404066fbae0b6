#pragma once
// Deterministic fault injection + the failure taxonomy and retry policy
// the storage/compute layers use to survive injected (and real) faults.
//
// Injection model: code marks named *sites* with fault::point("name").
// A site does nothing until armed. Arming attaches a trigger — a seeded
// per-site probability, an explicit schedule of 1-based hit numbers, or
// both — and from then on every passage through the site increments its
// hit counter and may throw. Fired faults throw TransientError by
// default (the retryable class) or FatalError when the spec says so.
// All state is process-global and thread-safe; the disarmed fast path
// is a single relaxed atomic load.
//
// Determinism: scheduled triggers fire on exact hit numbers, so a
// single-threaded sequence of operations faults at exactly the same
// points on every run. Probabilistic triggers draw from a per-site
// SplitMix64 stream seeded from the global seed + the site name, so
// they are reproducible too (up to thread interleaving of the hit
// order, which retry-based recovery must tolerate anyway).

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/log.hpp"

namespace graphulo::util {

/// A failure the caller may retry: the operation had no durable effect
/// (injection sites sit before their operation's side effects) and a
/// later attempt can succeed.
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A failure retrying cannot fix (corruption, programming error,
/// injected "disk died"). Propagates through retry loops untouched.
class FatalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bounded exponential backoff for retrying TransientError.
struct RetryPolicy {
  int max_attempts = 5;  ///< total tries (>= 1)
  std::chrono::microseconds initial_backoff{100};
  double multiplier = 2.0;
  std::chrono::microseconds max_backoff{5000};
};

/// Runs `fn`, retrying on TransientError with exponential backoff up to
/// `policy.max_attempts` total attempts. The final failure is rethrown;
/// FatalError and other exceptions propagate immediately. `what` labels
/// the operation in retry logs.
template <class F>
auto with_retries(const char* what, const RetryPolicy& policy, F&& fn)
    -> decltype(fn()) {
  auto backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const TransientError& e) {
      if (attempt >= policy.max_attempts) {
        GRAPHULO_WARN << what << ": giving up after " << attempt
                      << " attempts: " << e.what();
        throw;
      }
      GRAPHULO_DEBUG << what << ": transient failure (attempt " << attempt
                     << "/" << policy.max_attempts << "), retrying: "
                     << e.what();
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      backoff = std::min(
          policy.max_backoff,
          std::chrono::microseconds(static_cast<std::int64_t>(
              static_cast<double>(backoff.count()) * policy.multiplier)));
    }
  }
}

namespace fault {

// Every injection site threaded through the system, one constant per
// site so tests can enumerate them. point() accepts arbitrary names —
// this list is the catalog of what the tree currently marks.
namespace sites {
inline constexpr const char* kWalAppend = "wal.append";
inline constexpr const char* kWalSync = "wal.sync";
inline constexpr const char* kWalCommit = "wal.commit";
inline constexpr const char* kRFileWrite = "rfile.write";
inline constexpr const char* kRFileRead = "rfile.read";
inline constexpr const char* kRFileSeek = "rfile.seek";
inline constexpr const char* kMemtableFlush = "memtable.flush";
inline constexpr const char* kTabletCompact = "tablet.compact";
inline constexpr const char* kInstanceApply = "instance.apply";
inline constexpr const char* kBatchWriterFlush = "batch_writer.flush";
inline constexpr const char* kTableMultWorker = "tablemult.worker";
inline constexpr const char* kCheckpointWrite = "checkpoint.write";
inline constexpr const char* kCheckpointLoad = "checkpoint.load";
inline constexpr const char* kManifestInstall = "manifest.install";
inline constexpr const char* kRpcSend = "rpc.send";
inline constexpr const char* kRpcRecv = "rpc.recv";
inline constexpr const char* kRpcAccept = "rpc.accept";
}  // namespace sites

/// All catalogued site names (the constants above).
const std::vector<std::string>& all_sites();

/// How an armed site decides to fire.
struct FaultSpec {
  /// Fires with this probability on every hit (seeded, per-site stream).
  double probability = 0.0;
  /// Fires on exactly these 1-based hit numbers (sorted or not).
  std::vector<std::uint64_t> fire_on_hits;
  /// Stops firing after this many fires (schedule + probability
  /// combined); the site stays armed and keeps counting hits.
  std::uint64_t max_fires = UINT64_MAX;
  /// Throw FatalError instead of TransientError.
  bool fatal = false;
};

/// Counters for one site since the last reset().
struct SiteStats {
  std::uint64_t hits = 0;   ///< times point() was reached while enabled
  std::uint64_t fires = 0;  ///< times a fault was thrown
};

/// Seeds the probabilistic trigger streams (also resets them).
void seed(std::uint64_t s);

/// Arms `site` with `spec` (replacing any previous spec) and resets its
/// counters.
void arm(const std::string& site, FaultSpec spec);

/// Disarms one site (its counters survive until reset()).
void disarm(const std::string& site);

/// Disarms every site and clears all counters. Tests call this in
/// teardown so injection never leaks across tests.
void reset();

/// True while at least one site is armed. Counters only accumulate
/// while enabled — the disarmed fast path does no bookkeeping.
bool enabled() noexcept;

/// Counters for `site` (zeros if never hit).
SiteStats stats(const std::string& site);

/// Total fires across all sites since the last reset().
std::uint64_t total_fires();

/// Marks an injection site: increments the hit counter and throws
/// TransientError/FatalError when the armed trigger fires. No-op (one
/// atomic load) while nothing is armed.
void point(const char* site);

}  // namespace fault
}  // namespace graphulo::util
