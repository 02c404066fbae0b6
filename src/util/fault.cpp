#include "util/fault.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "util/rng.hpp"

namespace graphulo::util::fault {

namespace {

struct SiteState {
  FaultSpec spec;
  bool armed = false;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  SplitMix64 rng{0};
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, SiteState> sites;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Armed-site count; point() bails on zero without touching the mutex.
std::atomic<std::size_t> g_armed{0};

std::uint64_t site_stream_seed(std::uint64_t seed, const std::string& site) {
  std::uint64_t h = seed;
  for (const char c : site) {
    h = hash64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

}  // namespace

const std::vector<std::string>& all_sites() {
  static const std::vector<std::string> kAll = {
      sites::kWalAppend,       sites::kWalSync,       sites::kWalCommit,
      sites::kRFileWrite,      sites::kRFileRead,     sites::kRFileSeek,
      sites::kMemtableFlush,   sites::kTabletCompact, sites::kInstanceApply,
      sites::kBatchWriterFlush, sites::kTableMultWorker,
      sites::kCheckpointWrite, sites::kCheckpointLoad, sites::kManifestInstall,
      sites::kRpcSend,         sites::kRpcRecv,       sites::kRpcAccept};
  return kAll;
}

void seed(std::uint64_t s) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.seed = s;
  for (auto& [name, state] : r.sites) {
    state.rng = SplitMix64(site_stream_seed(s, name));
  }
}

void arm(const std::string& site, FaultSpec spec) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  SiteState& state = r.sites[site];
  if (!state.armed) g_armed.fetch_add(1, std::memory_order_relaxed);
  std::sort(spec.fire_on_hits.begin(), spec.fire_on_hits.end());
  state.spec = std::move(spec);
  state.armed = true;
  state.hits = 0;
  state.fires = 0;
  state.rng = SplitMix64(site_stream_seed(r.seed, site));
}

void disarm(const std::string& site) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  auto it = r.sites.find(site);
  if (it != r.sites.end() && it->second.armed) {
    it->second.armed = false;
    g_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

void reset() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (auto& [name, state] : r.sites) {
    if (state.armed) g_armed.fetch_sub(1, std::memory_order_relaxed);
    state = SiteState{};
  }
  r.sites.clear();
}

bool enabled() noexcept {
  return g_armed.load(std::memory_order_relaxed) > 0;
}

SiteStats stats(const std::string& site) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  auto it = r.sites.find(site);
  if (it == r.sites.end()) return {};
  return {it->second.hits, it->second.fires};
}

std::uint64_t total_fires() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::uint64_t total = 0;
  for (const auto& [name, state] : r.sites) total += state.fires;
  return total;
}

void point(const char* site) {
  if (!enabled()) return;
  bool fire = false;
  bool fatal = false;
  std::uint64_t hit = 0;
  {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    auto it = r.sites.find(site);
    if (it == r.sites.end() || !it->second.armed) return;
    SiteState& state = it->second;
    hit = ++state.hits;
    if (state.fires < state.spec.max_fires) {
      fire = std::binary_search(state.spec.fire_on_hits.begin(),
                                state.spec.fire_on_hits.end(), hit);
      if (!fire && state.spec.probability > 0.0) {
        const double u =
            static_cast<double>(state.rng.next() >> 11) * 0x1.0p-53;
        fire = u < state.spec.probability;
      }
      if (fire) {
        ++state.fires;
        fatal = state.spec.fatal;
      }
    }
  }
  if (fire) {
    const std::string what = "injected fault at " + std::string(site) +
                             " (hit #" + std::to_string(hit) + ")";
    if (fatal) throw FatalError(what);
    throw TransientError(what);
  }
}

}  // namespace graphulo::util::fault
