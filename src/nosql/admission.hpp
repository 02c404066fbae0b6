#pragma once
// Admission control for mixed read/write traffic: bounded in-flight
// scans, per-session token-bucket rate limits, and a queue-or-shed
// overload policy — the layer that keeps long TableMult scans and heavy
// ingest from starving each other on one instance.
//
// Model: every Table owns one AdmissionController driven by its
// TableConfig::admission knobs (all zero = everything admitted, zero
// cost). The controller shares the table's config, and writers and
// scan tickets share the controller, so a client that outlives
// delete_table still meters against live state. Scans take a ScanTicket
// before building their stacks; the ticket is RAII and bounds the
// number of concurrently executing scan operations. Clients (Scanner,
// BatchScanner, BatchWriter) each carry an AdmissionSession whose token
// buckets meter their individual rate, so one chatty client saturates
// its own bucket before it can crowd out the rest.
//
// Overload surfaces as a TYPED error: OverloadedError derives from
// util::TransientError, so util::with_retries (and therefore
// BatchWriter's per-mutation retry loop) treats a shed write as
// back-pressure — bounded backoff, then a typed failure the caller can
// distinguish from corruption (BatchWriter::last_error_kind()).
// Deadlines propagate: a queued admission never waits past the caller's
// deadline, and scan loops abort with DeadlineExceeded once theirs
// passes.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "util/fault.hpp"

namespace graphulo::nosql {

/// The instance is over its admission limits and the policy said shed
/// (or a queued wait timed out). Derives from TransientError: retry
/// loops back off and re-attempt, which IS the back-pressure — callers
/// that exhaust their retries see a typed, distinguishable failure.
class OverloadedError : public util::TransientError {
 public:
  using util::TransientError::TransientError;
};

/// A cooperative deadline expired inside a scan loop (or while queued
/// for admission with a deadline attached). Deliberately NOT transient:
/// an immediate retry of a timed-out scan would time out again; the
/// caller decides whether to re-issue with a fresh deadline.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What to do with work that exceeds an admission limit.
enum class AdmissionPolicy {
  kQueue,  ///< wait (bounded by max_queue_wait / the caller's deadline)
  kShed,   ///< fail immediately with OverloadedError
};

/// Per-table admission knobs (TableConfig::admission). Zeros disable
/// each limit individually; the default config admits everything.
struct AdmissionConfig {
  /// Concurrent scan operations allowed to execute (0 = unlimited).
  std::size_t max_inflight_scans = 0;
  /// Queue or shed when a limit is hit.
  AdmissionPolicy policy = AdmissionPolicy::kQueue;
  /// Longest a queued admission may wait before shedding anyway.
  std::chrono::milliseconds max_queue_wait{1000};
  /// Per-session scan admissions per second (0 = unlimited).
  double scan_rate = 0.0;
  double scan_burst = 16.0;
  /// Per-session mutations per second through BatchWriter (0 =
  /// unlimited).
  double write_rate = 0.0;
  double write_burst = 1024.0;
};

/// One client's token-bucket state (scan + write buckets). Sessions are
/// cheap; create one per logical client (a Scanner loop, a BatchWriter)
/// via AdmissionController::make_session(). Thread-safe — a session may
/// be shared by the client's worker threads, in which case they share
/// its rate.
class AdmissionSession {
 public:
  /// Starts both buckets full (`config`'s bursts).
  explicit AdmissionSession(const AdmissionConfig& config);

 private:
  friend class AdmissionController;

  std::mutex mutex_;
  double scan_tokens_;
  double write_tokens_;
  std::chrono::steady_clock::time_point scan_refill_;
  std::chrono::steady_clock::time_point write_refill_;
};

/// The per-table admission gate, owned by shared_ptr (scan tickets
/// share it). `config` is the table's, shared with it.
class AdmissionController
    : public std::enable_shared_from_this<AdmissionController> {
 public:
  explicit AdmissionController(std::shared_ptr<const AdmissionConfig> config)
      : config_(std::move(config)) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII in-flight-scan slot. Empty (default-constructed or moved-
  /// from) tickets release nothing.
  class ScanTicket {
   public:
    ScanTicket() = default;
    ScanTicket(ScanTicket&& other) noexcept = default;
    ScanTicket& operator=(ScanTicket&& other) noexcept {
      if (this != &other) {
        release();
        ctrl_ = std::move(other.ctrl_);
      }
      return *this;
    }
    ~ScanTicket() { release(); }
    explicit operator bool() const noexcept { return ctrl_ != nullptr; }

   private:
    friend class AdmissionController;
    explicit ScanTicket(std::shared_ptr<AdmissionController> ctrl)
        : ctrl_(std::move(ctrl)) {}
    void release() noexcept;

    std::shared_ptr<AdmissionController> ctrl_;
  };

  /// Admits one scan operation: charges the session's scan bucket (when
  /// one is supplied and a rate is configured), then takes an in-flight
  /// slot. Queue policy waits — bounded by max_queue_wait and by
  /// `deadline` when given — shed policy fails immediately. Throws
  /// OverloadedError when the scan cannot be admitted.
  ScanTicket admit_scan(
      AdmissionSession* session = nullptr,
      std::optional<std::chrono::steady_clock::time_point> deadline = {});

  /// Charges `mutations` write tokens from the session's bucket; the
  /// write-path back-pressure hook BatchWriter::flush calls before each
  /// apply. Queue policy sleeps until the bucket refills (bounded by
  /// max_queue_wait); shed policy throws OverloadedError immediately
  /// when the bucket is dry.
  void admit_write(AdmissionSession& session, std::size_t mutations = 1);

  /// A fresh session with full buckets.
  std::shared_ptr<AdmissionSession> make_session() const {
    return std::make_shared<AdmissionSession>(*config_);
  }

  const AdmissionConfig& config() const noexcept { return *config_; }

  /// Scans currently holding a slot (0 when max_inflight_scans is 0 —
  /// unlimited scans take no slot).
  std::size_t inflight_scans() const;

 private:
  void release_scan() noexcept;

  std::shared_ptr<const AdmissionConfig> config_;
  mutable std::mutex mutex_;
  std::condition_variable slot_cv_;
  std::size_t inflight_ = 0;
};

}  // namespace graphulo::nosql
