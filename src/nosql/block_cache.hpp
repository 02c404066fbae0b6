#pragma once
// Sharded LRU cache of RFile data blocks, modelled on Accumulo's
// tserver data-block cache. Entries are keyed by (file id, block
// index), where a block is one index-stride window of an RFile — the
// unit the block index narrows a seek to. Each resident entry pins the
// block's DECODED cells and charges the block's encoded byte size
// against a fixed byte budget; insertion past the budget evicts
// least-recently-used blocks.
//
// In this in-process stand-in RFiles are memory-resident, so a "miss"
// costs a block decode rather than a disk read — the cache is the
// residency/accounting model the real system's cache-hit economics
// hang off: hits, misses
// and evictions are counted exactly as a disk-backed cache would count
// them, and the hit rate over a workload measures its real reuse.
//
// Thread-safe. Sharded by key hash so concurrent scans touching
// different files (or different regions of one file) do not serialize
// on a single mutex.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace graphulo::nosql {

struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;
};

class BlockCache {
 public:
  /// A resident block: pins the owning storage (keeping the bytes
  /// "loaded") and records its charge against the budget.
  using Pin = std::shared_ptr<const void>;

  /// `capacity_bytes` is the total budget across all shards (each shard
  /// gets an equal slice). `num_shards` is rounded up to a power of
  /// two.
  explicit BlockCache(std::size_t capacity_bytes, std::size_t num_shards = 8);

  /// Lookup half of the decode-through protocol: returns the resident
  /// pin (refreshing its LRU position) or nullptr on a miss. Hit/miss
  /// counters update either way; a miss does NOT insert — the caller
  /// decodes the block and hands the result to insert().
  Pin find(std::uint64_t file_id, std::uint64_t block_index);

  /// Inserts a freshly decoded block (typically after a find() miss),
  /// evicting LRU entries until the shard is back under budget (an
  /// oversized block may evict everything and still be admitted — the
  /// budget is approximate, as in Accumulo). If the key is already
  /// resident (another scan raced the decode) the existing entry is
  /// refreshed and kept — dropping the duplicate charge keeps the
  /// budget accounting exact. No hit/miss counting: find() did that.
  void insert(std::uint64_t file_id, std::uint64_t block_index, const Pin& pin,
              std::size_t charge);

  /// Drops every block of `file_id` (called when a compaction retires
  /// the file, so dead blocks stop occupying budget). O(entries).
  void erase_file(std::uint64_t file_id);

  /// Aggregate counters across shards.
  BlockCacheStats stats() const;

  std::size_t capacity_bytes() const noexcept { return capacity_; }

 private:
  struct BlockKey {
    std::uint64_t file_id;
    std::uint64_t block_index;
    bool operator==(const BlockKey&) const = default;
  };
  struct BlockKeyHash {
    std::size_t operator()(const BlockKey& k) const noexcept;
  };
  struct Entry {
    BlockKey key;
    Pin pin;
    std::size_t charge = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<BlockKey, std::list<Entry>::iterator, BlockKeyHash> map;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const BlockKey& key);

  std::size_t capacity_;
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace graphulo::nosql
