#pragma once
// The one result envelope every bench_suite run writes:
//
//   {bench, workload, seed, commit, nproc, build, traced, smoke,
//    correct, attempted, failed, metrics{}, layers{}, samples{}}
//
// `metrics` holds the end-to-end numbers of an untraced run, `layers`
// the per-layer numbers of a traced run, `samples` the raw per-op and
// per-setup timings behind the medians. Names and units are defined
// once, in BENCHMARK.json; run.py checks that a run reports exactly
// the names listed there. Also here: the in-memory span log a traced
// run writes as a Chrome trace when it ends.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

#ifndef PERFBENCH_COMMIT
#define PERFBENCH_COMMIT "unknown"
#endif
#ifndef PERFBENCH_BUILD
#define PERFBENCH_BUILD "unknown"
#endif

/// Shortest round-trip text of a finite double (all its digits).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Envelope {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool smoke = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;
  std::map<std::string, std::vector<double>> samples;

  std::string to_json() const {
    const auto object = [](const std::map<std::string, double>& m) {
      std::string out = "{";
      for (const auto& [k, v] : m) {
        if (out.size() > 1) out += ", ";
        out += json_string(k) + ": " + json_number(v);
      }
      return out + "}";
    };
    std::string samples_json = "{";
    for (const auto& [k, values] : samples) {
      if (samples_json.size() > 1) samples_json += ", ";
      samples_json += json_string(k) + ": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) samples_json += ", ";
        samples_json += json_number(values[i]);
      }
      samples_json += "]";
    }
    samples_json += "}";
    return std::string("{\"bench\": \"bench_suite\"") +
           ", \"workload\": " + json_string(workload) +
           ", \"seed\": " + std::to_string(seed) +
           ", \"commit\": " + json_string(PERFBENCH_COMMIT) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"build\": " + json_string(PERFBENCH_BUILD) +
           ", \"traced\": " + (traced ? "true" : "false") +
           ", \"smoke\": " + (smoke ? "true" : "false") +
           ", \"correct\": " + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + object(metrics) +
           ", \"layers\": " + object(layers) +
           ", \"samples\": " + samples_json + "}\n";
  }
};

/// Spans kept in memory during a traced run: complete ("ph": "X")
/// events of the op → partition → scan/sink-totals tree, each tagged
/// with the id of the op it belongs to.
class SpanLog {
 public:
  void add(const std::string& name, std::size_t tid, double start_us,
           double dur_us, std::uint64_t op_id) {
    std::lock_guard lock(mutex_);
    events_.push_back({name, tid, start_us, dur_us, op_id});
  }

  std::string chrome_json() const {
    std::lock_guard lock(mutex_);
    std::string out = "[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\": " + json_string(e.name) +
             ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
             ", \"ts\": " + json_number(e.start_us) +
             ", \"dur\": " + json_number(e.dur_us) +
             ", \"args\": {\"op\": " + std::to_string(e.op_id) + "}}";
    }
    return out + "]\n";
  }

 private:
  struct Event {
    std::string name;
    std::size_t tid;
    double start_us;
    double dur_us;
    std::uint64_t op_id;
  };
  mutable std::mutex mutex_;  // ingest-query records from three threads
  std::vector<Event> events_;
};

}  // namespace perfbench
