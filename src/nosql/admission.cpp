#include "nosql/admission.hpp"

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"

namespace graphulo::nosql {
namespace {

obs::Counter& scans_admitted_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "admission.scans.admitted.total", "Scan operations admitted");
  return c;
}

obs::Counter& scans_queued_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "admission.scans.queued.total",
      "Scan admissions that had to wait for an in-flight slot");
  return c;
}

obs::Counter& scans_shed_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "admission.scans.shed.total",
      "Scan admissions rejected with OverloadedError");
  return c;
}

obs::Counter& writes_throttled_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "admission.writes.throttled.total",
      "Write admissions that slept on a dry token bucket");
  return c;
}

obs::Counter& writes_shed_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "admission.writes.shed.total",
      "Write admissions rejected with OverloadedError");
  return c;
}

obs::Gauge& scans_inflight_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "admission.scans.inflight", "Scans currently holding an in-flight slot");
  return g;
}

obs::Histogram& queue_wait_hist() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "admission.queue_wait.seconds",
      "Time spent queued for admission (slots and token buckets)",
      obs::default_latency_buckets());
  return h;
}

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Charges `cost` tokens from one bucket, refilling at `rate`/s up to
/// `burst`. When the bucket is dry, sleeps until enough tokens accrue —
/// but never past `give_up` (pass `now` for an immediate shed). Returns
/// the seconds slept, or nullopt when the charge could not be satisfied
/// in time. The session mutex is only held for the bookkeeping, never
/// across a sleep, so concurrent users of one session stay honest: each
/// wakes, re-checks, and may find another thread drained the refill.
std::optional<double> charge_bucket(std::mutex& mutex, double& tokens,
                                    Clock::time_point& last_refill,
                                    double rate, double burst, double cost,
                                    Clock::time_point give_up) {
  double waited = 0.0;
  for (;;) {
    Clock::duration need{};
    {
      std::lock_guard<std::mutex> lock(mutex);
      const auto now = Clock::now();
      tokens = std::min(burst,
                        tokens + rate * seconds_between(last_refill, now));
      last_refill = now;
      if (tokens >= cost) {
        tokens -= cost;
        return waited;
      }
      need = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>((cost - tokens) / rate));
    }
    const auto now = Clock::now();
    if (now + need > give_up) return std::nullopt;
    std::this_thread::sleep_for(need);
    waited += std::chrono::duration<double>(need).count();
  }
}

}  // namespace

AdmissionSession::AdmissionSession(const AdmissionConfig& config)
    : scan_tokens_(config.scan_burst),
      write_tokens_(config.write_burst),
      scan_refill_(Clock::now()),
      write_refill_(Clock::now()) {}

AdmissionController::ScanTicket AdmissionController::admit_scan(
    AdmissionSession* session,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  const AdmissionConfig& cfg = *config_;
  const auto now = Clock::now();
  // Queue policy waits up to max_queue_wait but never past the caller's
  // deadline; shed policy gets a give-up point of "now" and so never
  // waits at all.
  Clock::time_point give_up = now;
  if (cfg.policy == AdmissionPolicy::kQueue) {
    give_up = now + cfg.max_queue_wait;
    if (deadline && *deadline < give_up) give_up = *deadline;
  }

  if (session != nullptr && cfg.scan_rate > 0) {
    const auto waited =
        charge_bucket(session->mutex_, session->scan_tokens_,
                      session->scan_refill_, cfg.scan_rate, cfg.scan_burst,
                      1.0, give_up);
    if (!waited) {
      scans_shed_total().inc();
      throw OverloadedError(
          "admission: session scan rate exceeded (policy=" +
          std::string(cfg.policy == AdmissionPolicy::kQueue ? "queue"
                                                            : "shed") +
          ")");
    }
    if (*waited > 0) queue_wait_hist().observe(*waited);
  }

  if (cfg.max_inflight_scans == 0) {
    scans_admitted_total().inc();
    return ScanTicket();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (inflight_ >= cfg.max_inflight_scans) {
    scans_queued_total().inc();
    const auto wait_start = Clock::now();
    const bool got_slot = slot_cv_.wait_until(lock, give_up, [&] {
      return inflight_ < cfg.max_inflight_scans;
    });
    queue_wait_hist().observe(seconds_between(wait_start, Clock::now()));
    if (!got_slot) {
      scans_shed_total().inc();
      throw OverloadedError(
          "admission: too many in-flight scans (limit=" +
          std::to_string(cfg.max_inflight_scans) + ")");
    }
  }
  ++inflight_;
  lock.unlock();
  scans_inflight_gauge().add(1);
  scans_admitted_total().inc();
  return ScanTicket(shared_from_this());
}

void AdmissionController::admit_write(AdmissionSession& session,
                                      std::size_t mutations) {
  const AdmissionConfig& cfg = *config_;
  if (cfg.write_rate <= 0) return;
  const auto now = Clock::now();
  const Clock::time_point give_up = cfg.policy == AdmissionPolicy::kQueue
                                        ? now + cfg.max_queue_wait
                                        : now;
  const auto waited = charge_bucket(
      session.mutex_, session.write_tokens_, session.write_refill_,
      cfg.write_rate, cfg.write_burst,
      static_cast<double>(mutations), give_up);
  if (!waited) {
    writes_shed_total().inc();
    throw OverloadedError("admission: session write rate exceeded");
  }
  if (*waited > 0) {
    writes_throttled_total().inc();
    queue_wait_hist().observe(*waited);
  }
}

std::size_t AdmissionController::inflight_scans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

void AdmissionController::release_scan() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (inflight_ > 0) --inflight_;
  }
  scans_inflight_gauge().add(-1);
  slot_cv_.notify_one();
}

void AdmissionController::ScanTicket::release() noexcept {
  if (ctrl_ != nullptr) {
    ctrl_->release_scan();
    ctrl_.reset();
  }
}

}  // namespace graphulo::nosql
