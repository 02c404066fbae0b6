#include "nosql/block_cache.hpp"

#include "obs/metrics.hpp"

namespace graphulo::nosql {

namespace {

// Process-wide totals across every cache instance; per-cache numbers
// stay available through BlockCache::stats().
obs::Counter& cache_hits() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "cache.hits.total", "Block-cache hits");
  return c;
}
obs::Counter& cache_misses() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "cache.misses.total", "Block-cache misses");
  return c;
}
obs::Counter& cache_evictions() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "cache.evictions.total", "Block-cache evictions");
  return c;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t BlockCache::BlockKeyHash::operator()(
    const BlockKey& k) const noexcept {
  return static_cast<std::size_t>(mix64(k.file_id * 0x100000001b3ull ^
                                        k.block_index));
}

BlockCache::BlockCache(std::size_t capacity_bytes, std::size_t num_shards)
    : capacity_(capacity_bytes) {
  const std::size_t n = round_up_pow2(num_shards == 0 ? 1 : num_shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = capacity_ / n;
}

BlockCache::Shard& BlockCache::shard_for(const BlockKey& key) {
  return *shards_[BlockKeyHash{}(key) & (shards_.size() - 1)];
}

BlockCache::Pin BlockCache::find(std::uint64_t file_id,
                                 std::uint64_t block_index) {
  const BlockKey key{file_id, block_index};
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    cache_misses().inc();
    return nullptr;
  }
  ++shard.hits;
  cache_hits().inc();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->pin;
}

void BlockCache::insert(std::uint64_t file_id, std::uint64_t block_index,
                        const Pin& pin, std::size_t charge) {
  const BlockKey key{file_id, block_index};
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, pin, charge});
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += charge;
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.charge;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
    cache_evictions().inc();
  }
}

void BlockCache::erase_file(std::uint64_t file_id) {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.file_id == file_id) {
        shard.bytes -= it->charge;
        shard.map.erase(it->key);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

BlockCacheStats BlockCache::stats() const {
  BlockCacheStats out;
  out.capacity_bytes = capacity_;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard lock(shard.mutex);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace graphulo::nosql
