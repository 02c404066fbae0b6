#pragma once
// Immutable sorted run ("RFile", after Accumulo's file format). Produced
// by minor compactions (memtable flush) and major compactions (merging
// several files through the compaction iterator stack). Carries a block
// index (the first key of every block) consulted by seek, a per-file
// row Bloom filter plus first/last-key bounds for seek pruning, and is
// optionally serializable to disk (the RFL3 format) with CRC32
// integrity checksums.
//
// Cells are packed into per-block byte buffers: shared-prefix delta
// compression with varint lengths and restart points
// (nosql/block_codec.hpp), optionally followed by a general-purpose
// per-block compressor (util/lz.hpp). Blocks decode on demand; with a
// BlockCache attached, hot blocks stay decoded in the cache while being
// charged at their ENCODED byte size, so a cache_bytes budget holds
// several times more cells than their materialized size would allow.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nosql/iterator.hpp"
#include "nosql/key.hpp"

namespace graphulo::nosql {

class BlockCache;

/// Per-block general-purpose compressor applied AFTER prefix encoding.
enum class RFileCompressor : std::uint8_t {
  kNone = 0,
  kLz = 1,  ///< built-in LZ codec (util/lz.hpp); no external deps
};

/// Construction knobs for RFile acceleration structures.
struct RFileOptions {
  /// One sparse-index entry every `index_stride` cells. The index
  /// narrows seeks to a single stride window before the final search.
  /// Also the data-block granularity the block cache operates on.
  std::size_t index_stride = 128;
  /// Bits per distinct row in the row Bloom filter; 0 disables the
  /// filter (seek pruning then falls back to first/last-key bounds
  /// only).
  std::size_t bloom_bits_per_row = 10;
  /// Byte budget for the table's RFile block cache (see
  /// nosql/block_cache.hpp). 0 disables caching entirely: iterators
  /// decode into a private buffer and never touch a cache.
  std::size_t cache_bytes = 0;
  /// Full (non-delta) key every `restart_interval` cells inside a
  /// block; seeks binary-search the restart array and decode at most
  /// this many keys linearly.
  std::size_t restart_interval = 16;
  /// Optional per-block compressor applied after prefix encoding.
  RFileCompressor compressor = RFileCompressor::kNone;
};

/// One immutable sorted cell file.
class RFile : public std::enable_shared_from_this<RFile> {
 public:
  /// Builds from sorted cells (asserted in debug; callers are the
  /// compaction paths which produce sorted output by construction).
  static std::shared_ptr<RFile> from_sorted(std::vector<Cell> cells,
                                            const RFileOptions& options = {});

  std::size_t entry_count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Smallest / largest key (preconditions: !empty()).
  const Key& first_key() const { return first_key_; }
  const Key& last_key() const { return last_key_; }

  /// A fresh iterator over this file's cells. Its seek() consults the
  /// sparse block index and skips the file entirely (exhausted
  /// immediately) when the range cannot intersect it — the first/last
  /// key bounds or, for single-row ranges, the row Bloom filter prove
  /// the target absent.
  IterPtr iterator() const;

  /// Same, but every data block the iterator reads is pulled through
  /// `cache` (see nosql/block_cache.hpp). `cache == nullptr` behaves
  /// exactly like iterator(). The cache is decode-through: pins hold
  /// DECODED cell blocks (hot blocks never re-decode) charged at their
  /// encoded byte size. The iterator does not own `cache`; in a scan
  /// stack its LevelIterator shares it.
  IterPtr iterator(BlockCache* cache) const;

  /// Process-unique id of this file, the cache key namespace.
  std::uint64_t file_id() const noexcept { return file_id_; }

  /// Data-block geometry for the cache: cells per block and per-block
  /// byte charges (the encoded, possibly compressed, block size).
  std::size_t block_stride() const noexcept { return stride_; }
  std::size_t block_count() const noexcept { return blocks_.size(); }
  std::size_t block_charge(std::size_t block) const {
    return blocks_[block].data.size();
  }
  /// Sum of block_charge over all blocks: the file's total cache cost.
  std::size_t total_block_bytes() const noexcept { return total_block_bytes_; }

  /// False when no cell of this file can lie inside `range` (bounds
  /// check + row Bloom filter for single-row ranges). Conservative:
  /// true does not guarantee a hit.
  bool may_intersect(const Range& range) const;

  /// False when the file provably holds no cell of `row` (Bloom filter
  /// + first/last row bounds). Conservative: true may be a false
  /// positive.
  bool may_contain_row(const std::string& row) const;

  /// Position of the first cell with key >= `key` (entry_count() when
  /// none). Binary search over the block first keys; the in-block step
  /// binary-searches restart points and decodes at most
  /// restart_interval keys.
  std::size_t lower_bound_pos(const Key& key) const;

  /// Up to `n` evenly spaced row keys from this file (distinct-adjacent,
  /// sorted). The stride rounds UP and the file's last distinct row is
  /// always considered, so parallel-scan partitions derived from the
  /// samples cover the tail of the key space instead of skewing toward
  /// low keys. Decodes one block per sample.
  std::vector<std::string> sample_rows(std::size_t n) const;

  /// Serializes to disk in the RFL3 format (checksummed header + packed
  /// blocks with per-block CRC32s). Returns false on I/O failure.
  bool write_to(const std::string& path) const;

  /// Loads a file written by write_to(); the packed blocks are adopted
  /// verbatim, so the file keeps the geometry it was written with.
  /// nullptr on failure or if the content fails validation (bad or
  /// retired magic such as RFL2, a header length longer than the file,
  /// truncation, CRC mismatch, unsorted keys).
  static std::shared_ptr<RFile> read_from(const std::string& path);

  /// Approximate in-memory footprint in bytes: packed bytes + metadata,
  /// i.e. the compressed footprint.
  std::size_t approximate_bytes() const noexcept { return bytes_; }

 private:
  friend class EncodedRFileIterator;

  /// One packed data block: `stride_` cells (fewer in the last block)
  /// prefix-encoded and optionally compressed.
  struct EncodedBlock {
    std::string data;            ///< stored bytes (post-compressor)
    std::uint32_t count = 0;     ///< cells in this block
    std::uint32_t raw_bytes = 0; ///< pre-compressor size (== data.size()
                                 ///< when not compressed)
    bool compressed = false;
  };

  RFile(std::vector<Cell> cells, const RFileOptions& options);
  /// Adopts already-encoded blocks (the RFL3 load path).
  RFile(std::vector<EncodedBlock> blocks, std::vector<Key> block_first_keys,
        Key first_key, Key last_key, std::uint64_t count,
        std::vector<std::uint64_t> bloom, std::size_t bloom_bits,
        std::size_t stride, std::size_t restart_interval);

  void build_bloom_from_cells(const std::vector<Cell>& cells,
                              const RFileOptions& options);
  void encode_cells(const std::vector<Cell>& cells,
                    const RFileOptions& options);
  /// Derives bytes_ and total_block_bytes_ from the blocks, their first
  /// keys and the Bloom filter (shared by both constructors, so a
  /// reloaded file reports exactly the footprint it was written with).
  void finish_accounting();

  /// Block `b`'s prefix-encoded bytes: the stored data, or for a
  /// compressed block its decompression into per-thread scratch (valid
  /// until this thread's next raw_block call).
  std::string_view raw_block(std::size_t b) const;

  /// Decodes block `b` into `out` (resized; slot capacity reused).
  /// Decompresses first when the block carries a compressor. Throws
  /// std::logic_error on malformed data — blocks are CRC-verified at
  /// load, so a decode failure is a program bug, not an I/O condition.
  void decode_block_into(std::size_t b, std::vector<Cell>& out) const;

  /// lower_bound over one encoded block via its restart points; returns
  /// an in-block index in [0, block count].
  std::size_t in_block_lower_bound(std::size_t b, const Key& key) const;

  std::uint64_t file_id_ = 0;             ///< process-unique
  std::size_t count_ = 0;                 ///< total cells
  std::size_t bytes_ = 0;
  std::size_t stride_ = 1;                ///< cells per data block
  std::size_t total_block_bytes_ = 0;
  std::vector<std::uint64_t> bloom_;      ///< row Bloom bits; empty = off
  std::size_t bloom_bits_ = 0;
  Key first_key_;
  Key last_key_;
  std::vector<EncodedBlock> blocks_;
  std::vector<Key> block_first_keys_;     ///< sparse index of the blocks
  std::size_t restart_interval_ = 16;
};

}  // namespace graphulo::nosql
