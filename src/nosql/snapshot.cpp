#include "nosql/snapshot.hpp"

#include <atomic>

#include "nosql/block_cache.hpp"
#include "nosql/filter_iterators.hpp"
#include "nosql/merge_iterator.hpp"
#include "obs/metrics.hpp"

namespace graphulo::nosql {

namespace {

obs::Histogram& files_consulted_hist() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "scan.files_consulted",
      "Immutable files opened per tablet scan stack (read amplification)",
      {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128});
  return h;
}
obs::Gauge& snapshot_live_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "snapshot.live",
      "Open MVCC tablet snapshot handles (each keeps its cut in memory)");
  return g;
}
obs::Counter& snapshot_opened_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "snapshot.opened.total", "MVCC tablet snapshots opened");
  return c;
}

/// Read-amplification probe for a scan stack: every LevelIterator file
/// open bumps it; when the stack dies the total is observed into the
/// scan.files_consulted histogram.
std::shared_ptr<std::atomic<std::uint64_t>> make_consulted_probe() {
  return std::shared_ptr<std::atomic<std::uint64_t>>(
      new std::atomic<std::uint64_t>(0),
      [](std::atomic<std::uint64_t>* c) {
        files_consulted_hist().observe(
            static_cast<double>(c->load(std::memory_order_relaxed)));
        delete c;
      });
}

IterPtr merge_pinned_sources(
    const PinnedSources& sources, const std::shared_ptr<BlockCache>& cache,
    std::shared_ptr<std::atomic<std::uint64_t>> consulted) {
  const auto& v = sources.version;
  static const std::vector<FileMeta> kNoFiles;
  const auto& l0 = (!v || v->levels.empty()) ? kNoFiles : v->levels[0];
  std::vector<IterPtr> children;
  children.reserve(sources.frozen.size() + (v ? v->file_count() : 0) + 1);
  // Newest source first: at equal keys the merge prefers lower child
  // indices. The active memtable is always newest; frozen memtables and
  // L0 files interleave by data sequence number. Sorted levels follow,
  // shallowest (newest) first — everything in L(n+1) predates
  // everything in L(n) by construction.
  if (sources.active.memtable) children.push_back(sources.active.iterator());
  auto fz = sources.frozen.begin();
  std::size_t fi = 0;
  while (fz != sources.frozen.end() || fi < l0.size()) {
    if (fi >= l0.size() ||
        (fz != sources.frozen.end() && fz->first > l0[fi].seq)) {
      children.push_back(fz->second.iterator());
      ++fz;
    } else {
      // One LevelIterator per L0 file (ranges may overlap), so file
      // opens are counted — and seek-pruned — uniformly across levels.
      children.push_back(std::make_unique<LevelIterator>(
          std::vector<FileMeta>{l0[fi]}, cache, consulted));
      ++fi;
    }
  }
  if (v) {
    for (std::size_t l = 1; l < v->levels.size(); ++l) {
      if (v->levels[l].empty()) continue;
      children.push_back(
          std::make_unique<LevelIterator>(v->levels[l], cache, consulted));
    }
  }
  return std::make_unique<MergeIterator>(std::move(children));
}

}  // namespace

IterPtr apply_scope_iterators(IterPtr source,
                              const std::vector<IteratorSetting>& settings,
                              unsigned scope) {
  for (const auto& setting : settings) {
    if (setting.scopes & scope) source = setting.factory(std::move(source));
  }
  return source;
}

IterPtr read_stack(const PinnedSources& sources,
                   const std::shared_ptr<BlockCache>& cache,
                   const TableConfig* config) {
  if (!config) return merge_pinned_sources(sources, cache, nullptr);
  IterPtr stack = merge_pinned_sources(sources, cache, make_consulted_probe());
  stack = std::make_unique<DeletingIterator>(std::move(stack));
  if (config->versioning) {
    stack = std::make_unique<VersioningIterator>(std::move(stack),
                                                 config->max_versions);
  }
  return apply_scope_iterators(std::move(stack), config->iterators,
                               kScanScope);
}

TabletSnapshot::TabletSnapshot(TabletExtent extent, PinnedSources sources,
                               std::shared_ptr<BlockCache> cache,
                               std::shared_ptr<const TableConfig> config)
    : extent_(std::move(extent)),
      sources_(std::move(sources)),
      cache_(std::move(cache)),
      config_(std::move(config)) {
  snapshot_live_gauge().add(1);
  snapshot_opened_total().inc();
}

TabletSnapshot::~TabletSnapshot() { snapshot_live_gauge().add(-1); }

std::vector<std::shared_ptr<TabletSnapshot>> Snapshot::tablets_for_range(
    const Range& range) const {
  std::vector<std::shared_ptr<TabletSnapshot>> out;
  for (const auto& ts : tablets_) {
    if (range.may_intersect_rows(ts->extent().start_row,
                                 ts->extent().end_row)) {
      out.push_back(ts);
    }
  }
  return out;
}

}  // namespace graphulo::nosql
