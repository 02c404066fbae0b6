#pragma once
// Readings of the program's own metrics registry, taken around the
// timed ops so per-layer counts are deltas of what the program already
// records (WAL, flush/compaction, scan, RPC). Oracle checks run outside
// those windows and do not show up in the deltas.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// A flattened registry snapshot: counters and gauges summed over their
/// labelled series; a histogram as "<name>.count", "<name>.sum" and its
/// per-bucket counts.
struct RegistryReading {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> bounds;
  std::map<std::string, std::vector<double>> buckets;

  double get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }

  /// This reading minus an earlier one, series by series.
  RegistryReading since(const RegistryReading& earlier) const {
    RegistryReading d;
    d.bounds = bounds;
    for (const auto& [name, v] : values) d.values[name] = v - earlier.get(name);
    for (const auto& [name, counts] : buckets) {
      auto& out = d.buckets[name];
      out = counts;
      const auto it = earlier.buckets.find(name);
      if (it == earlier.buckets.end()) continue;
      for (std::size_t i = 0; i < out.size() && i < it->second.size(); ++i) {
        out[i] -= it->second[i];
      }
    }
    return d;
  }

  /// Quantile q of a histogram's bucket counts: the upper bound of the
  /// bucket the rank lands in (exact for the integer-bounded count
  /// histograms this is used on); 0 when empty.
  double quantile(const std::string& name, double q) const {
    const auto b = bounds.find(name);
    const auto c = buckets.find(name);
    if (b == bounds.end() || c == buckets.end() || b->second.empty()) return 0.0;
    double total = 0.0;
    for (double n : c->second) total += n;
    if (total <= 0.0) return 0.0;
    double seen = 0.0;
    for (std::size_t i = 0; i < c->second.size() && i < b->second.size(); ++i) {
      seen += c->second[i];
      if (seen >= q * total) return b->second[i];
    }
    return b->second.back();
  }
};

inline RegistryReading read_registry() {
  RegistryReading r;
  const auto snap = graphulo::obs::MetricsRegistry::global().snapshot();
  for (const auto& family : snap.families) {
    if (family.kind != graphulo::obs::MetricKind::kHistogram) {
      double sum = 0.0;
      for (const auto& s : family.series) sum += s.value;
      r.values[family.name] = sum;
      continue;
    }
    double count = 0.0, sum = 0.0;
    std::vector<double> buckets;
    for (const auto& s : family.series) {
      count += static_cast<double>(s.count);
      sum += s.sum;
      if (buckets.size() < s.bucket_counts.size()) {
        buckets.resize(s.bucket_counts.size(), 0.0);
      }
      for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
        buckets[i] += static_cast<double>(s.bucket_counts[i]);
      }
      if (r.bounds.count(family.name) == 0) r.bounds[family.name] = s.bounds;
    }
    r.values[family.name + ".count"] = count;
    r.values[family.name + ".sum"] = sum;
    r.buckets[family.name] = std::move(buckets);
  }
  return r;
}

}  // namespace perfbench
