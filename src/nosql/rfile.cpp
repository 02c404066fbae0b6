#include "nosql/rfile.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "nosql/block_cache.hpp"
#include "nosql/block_codec.hpp"
#include "nosql/codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checksum.hpp"
#include "util/fault.hpp"
#include "util/lz.hpp"

namespace graphulo::nosql {

using util::crc32;

namespace {

constexpr std::uint32_t kMagic = 0x52464c33;  // "RFL3"; any other is rejected

// ---- obs instrumentation ------------------------------------------------
// Process-wide encode/decode accounting: how many logical key/value
// bytes went in, how many encoded bytes came out (the compression-ratio
// gauge is their running quotient), and how much block decoding the
// read path performs.

obs::Counter& encode_raw_bytes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rfile.encode.raw_bytes.total",
      "Logical cell bytes fed to the RFile block encoder");
  return c;
}
obs::Counter& encode_packed_bytes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rfile.encode.encoded_bytes.total",
      "Encoded (post-compressor) RFile block bytes produced");
  return c;
}
obs::Gauge& compression_ratio_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "rfile.encode.ratio_x1000",
      "Running raw/encoded byte ratio across all encoded RFiles, x1000");
  return g;
}
obs::Counter& decode_blocks() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rfile.decode.blocks.total", "RFile data blocks decoded");
  return c;
}
obs::Counter& decode_raw_bytes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rfile.decode.raw_bytes.total",
      "Prefix-encoded bytes run through the RFile block decoder");
  return c;
}

std::size_t key_bytes(const Key& k) {
  return k.row.size() + k.family.size() + k.qualifier.size() +
         k.visibility.size();
}

// ---- row Bloom hashing --------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Returns the single row `range` can contain cells of, or nullptr when
/// the range spans more than one row. Recognizes both end.row ==
/// start.row and the Range::exact_row shape (exclusive end at the
/// minimal key of the row successor start.row + '\0').
const std::string* single_row_of(const Range& range) {
  if (!range.has_start || !range.has_end) return nullptr;
  if (range.end.row == range.start.row) return &range.start.row;
  if (!range.end_inclusive && range.end.row.size() == range.start.row.size() + 1 &&
      range.end.row.back() == '\0' &&
      range.end.row.compare(0, range.start.row.size(), range.start.row) == 0 &&
      !(min_key_for_row(range.end.row) < range.end)) {
    // No key of the successor row clears the exclusive end bound, so
    // every containable key has exactly start.row.
    return &range.start.row;
  }
  return nullptr;
}

}  // namespace

// ---- construction -------------------------------------------------------

namespace {
std::uint64_t next_file_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

RFile::RFile(std::vector<Cell> cells, const RFileOptions& options) {
  file_id_ = next_file_id();
  count_ = cells.size();
  stride_ = std::max<std::size_t>(1, options.index_stride);
  restart_interval_ = std::max<std::size_t>(1, options.restart_interval);
  if (!cells.empty()) {
    first_key_ = cells.front().key;
    last_key_ = cells.back().key;
  }
  build_bloom_from_cells(cells, options);
  encode_cells(cells, options);
  finish_accounting();
}

RFile::RFile(std::vector<EncodedBlock> blocks,
             std::vector<Key> block_first_keys, Key first_key, Key last_key,
             std::uint64_t count, std::vector<std::uint64_t> bloom,
             std::size_t bloom_bits, std::size_t stride,
             std::size_t restart_interval) {
  file_id_ = next_file_id();
  blocks_ = std::move(blocks);
  block_first_keys_ = std::move(block_first_keys);
  first_key_ = std::move(first_key);
  last_key_ = std::move(last_key);
  count_ = static_cast<std::size_t>(count);
  bloom_ = std::move(bloom);
  bloom_bits_ = bloom_bits;
  stride_ = std::max<std::size_t>(1, stride);
  restart_interval_ = std::max<std::size_t>(1, restart_interval);
  finish_accounting();
}

std::shared_ptr<RFile> RFile::from_sorted(std::vector<Cell> cells,
                                          const RFileOptions& options) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < cells.size(); ++i) {
    assert(!(cells[i].key < cells[i - 1].key) && "RFile cells must be sorted");
  }
#endif
  return std::shared_ptr<RFile>(new RFile(std::move(cells), options));
}

void RFile::build_bloom_from_cells(const std::vector<Cell>& cells,
                                   const RFileOptions& options) {
  if (options.bloom_bits_per_row == 0 || cells.empty()) return;
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 0 || cells[i].key.row != cells[i - 1].key.row) ++distinct;
  }
  bloom_bits_ = std::max<std::size_t>(64, distinct * options.bloom_bits_per_row);
  bloom_.assign((bloom_bits_ + 63) / 64, 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0 && cells[i].key.row == cells[i - 1].key.row) continue;
    const auto h1 = static_cast<std::uint64_t>(
        std::hash<std::string>{}(cells[i].key.row));
    const auto h2 = splitmix64(h1);
    for (const auto h : {h1, h2}) {
      const std::size_t bit = h % bloom_bits_;
      bloom_[bit / 64] |= 1ull << (bit % 64);
    }
  }
}

void RFile::encode_cells(const std::vector<Cell>& cells,
                         const RFileOptions& options) {
  TRACE_SPAN("rfile.encode");
  const std::size_t nblocks = (cells.size() + stride_ - 1) / stride_;
  blocks_.reserve(nblocks);
  block_first_keys_.reserve(nblocks);
  std::size_t raw_total = 0;
  std::size_t packed_total = 0;
  for (std::size_t i = 0; i < cells.size(); i += stride_) {
    const std::size_t n = std::min(stride_, cells.size() - i);
    for (std::size_t j = i; j < i + n; ++j) {
      raw_total += key_bytes(cells[j].key) + cells[j].value.size() +
                   sizeof(Timestamp) + 1;
    }
    EncodedBlock block;
    block.count = static_cast<std::uint32_t>(n);
    std::string raw =
        blockcodec::encode_block(cells.data() + i, n, restart_interval_);
    block.raw_bytes = static_cast<std::uint32_t>(raw.size());
    if (options.compressor == RFileCompressor::kLz) {
      std::string packed = util::lz_compress(raw);
      if (packed.size() < raw.size()) {
        block.data = std::move(packed);
        block.compressed = true;
      }
    }
    if (!block.compressed) block.data = std::move(raw);
    block.data.shrink_to_fit();
    packed_total += block.data.size();
    block_first_keys_.push_back(cells[i].key);
    blocks_.push_back(std::move(block));
  }
  encode_raw_bytes().inc(raw_total);
  encode_packed_bytes().inc(packed_total);
  const auto raw_cum = encode_raw_bytes().value();
  const auto packed_cum = encode_packed_bytes().value();
  if (packed_cum > 0) {
    compression_ratio_gauge().set(
        static_cast<std::int64_t>(raw_cum * 1000 / packed_cum));
  }
}

void RFile::finish_accounting() {
  total_block_bytes_ = 0;
  for (const auto& b : blocks_) total_block_bytes_ += b.data.size();
  bytes_ = total_block_bytes_ + blocks_.size() * sizeof(EncodedBlock) +
           bloom_.size() * sizeof(std::uint64_t);
  for (const auto& k : block_first_keys_) bytes_ += key_bytes(k) + sizeof(Key);
}

// ---- encoded-block access -----------------------------------------------

namespace {
/// Decompressed-block scratch, one per thread: RFiles are shared across
/// scan threads, and the scratch keeps repeated point lookups from
/// allocating a fresh buffer per block.
std::string& decompress_scratch() {
  thread_local std::string scratch;
  return scratch;
}
}  // namespace

std::string_view RFile::raw_block(std::size_t b) const {
  const EncodedBlock& block = blocks_[b];
  if (!block.compressed) return block.data;
  std::string& scratch = decompress_scratch();
  if (!util::lz_decompress(block.data, scratch, block.raw_bytes)) {
    throw std::logic_error("RFile: corrupt compressed block (post-CRC)");
  }
  return scratch;
}

void RFile::decode_block_into(std::size_t b, std::vector<Cell>& out) const {
  TRACE_SPAN("rfile.block_decode");
  const std::string_view raw = raw_block(b);
  if (!blockcodec::decode_block(raw, blocks_[b].count, out)) {
    throw std::logic_error("RFile: corrupt encoded block (post-CRC)");
  }
  decode_blocks().inc();
  decode_raw_bytes().inc(raw.size());
}

std::size_t RFile::in_block_lower_bound(std::size_t b, const Key& key) const {
  return blockcodec::block_lower_bound(raw_block(b), blocks_[b].count,
                                       restart_interval_, key);
}

// ---- pruning ------------------------------------------------------------

bool RFile::may_contain_row(const std::string& row) const {
  if (empty()) return false;
  if (row < first_key_.row || last_key_.row < row) return false;
  if (bloom_.empty()) return true;
  const auto h1 = static_cast<std::uint64_t>(std::hash<std::string>{}(row));
  const auto h2 = splitmix64(h1);
  for (const auto h : {h1, h2}) {
    const std::size_t bit = h % bloom_bits_;
    if (!(bloom_[bit / 64] & (1ull << (bit % 64)))) return false;
  }
  return true;
}

bool RFile::may_intersect(const Range& range) const {
  if (empty()) return false;
  // Bounds pruning: the whole file sorts before the start or after the
  // end of the range (conservative about inclusivity edge cases).
  if (range.has_start && last_key_ < range.start) return false;
  if (range.has_end && range.end < first_key_) return false;
  if (const std::string* row = single_row_of(range)) {
    return may_contain_row(*row);
  }
  return true;
}

std::size_t RFile::lower_bound_pos(const Key& key) const {
  if (count_ == 0) return 0;
  // Narrow to the one block that can hold the answer: the last block
  // whose first key is < key (an earlier block cannot contain a
  // larger-or-equal first hit; a later block's first key is already
  // >= key). Duplicate full keys across a block boundary resolve to the
  // earlier block, matching std::lower_bound over the sorted cells.
  const auto ge = std::partition_point(
      block_first_keys_.begin(), block_first_keys_.end(),
      [&](const Key& k) { return k < key; });
  if (ge == block_first_keys_.begin()) return 0;
  const auto b = static_cast<std::size_t>(ge - block_first_keys_.begin()) - 1;
  return b * stride_ + in_block_lower_bound(b, key);
}

// ---- iterators ----------------------------------------------------------

/// Iterator over one prefix-encoded RFile. Blocks decode on demand:
/// through the BlockCache when one is attached (the pin holds the
/// DECODED cells, charged at encoded size, so hot blocks never
/// re-decode), or into a private reusable buffer otherwise. Invariant:
/// whenever has_top(), the block containing pos_ is loaded.
class EncodedRFileIterator : public SortedKVIterator {
 public:
  explicit EncodedRFileIterator(std::shared_ptr<const RFile> file,
                                BlockCache* cache = nullptr)
      : file_(std::move(file)), cache_(cache) {}

  void seek(const Range& range) override {
    util::fault::point(util::fault::sites::kRFileSeek);
    pos_ = limit_ = 0;
    if (!file_->may_intersect(range)) return;  // pruned: exhausted
    const std::size_t total = file_->count_;
    if (range.has_start) {
      pos_ = file_->lower_bound_pos(range.start);
      while (pos_ < total && !range.start_inclusive &&
             key_at(pos_) == range.start) {
        ++pos_;
      }
    }
    if (range.has_end) {
      limit_ = file_->lower_bound_pos(range.end);
      while (limit_ < total && range.end_inclusive &&
             key_at(limit_) == range.end) {
        ++limit_;
      }
    } else {
      limit_ = total;
    }
    if (limit_ < pos_) limit_ = pos_;
    if (pos_ < limit_) load_block(pos_ / file_->stride_);
  }

  bool has_top() const override { return pos_ < limit_; }
  const Key& top_key() const override { return cell_at(pos_).key; }
  const Value& top_value() const override { return cell_at(pos_).value; }
  void next() override {
    ++pos_;
    if (pos_ < limit_) ensure_block(pos_);
  }

  std::size_t next_block(CellBlock& out, std::size_t max) override {
    std::size_t appended = 0;
    while (appended < max && pos_ < limit_) {
      ensure_block(pos_);
      const std::size_t base = cur_block_ * file_->stride_;
      const std::size_t block_end = std::min(limit_, base + cur_->size());
      const std::size_t take = std::min(max - appended, block_end - pos_);
      const Cell* cells = cur_->data() + (pos_ - base);
      for (std::size_t i = 0; i < take; ++i) {
        out.append(cells[i].key, cells[i].value);
      }
      pos_ += take;
      appended += take;
    }
    if (pos_ < limit_) ensure_block(pos_);
    return appended;
  }

  std::size_t next_block_until(CellBlock& out, std::size_t max,
                               const Key& bound, bool allow_equal) override {
    auto within = [&](const Cell& c) {
      const auto cmp = c.key <=> bound;
      return cmp < 0 || (cmp == 0 && allow_equal);
    };
    std::size_t appended = 0;
    while (appended < max && pos_ < limit_) {
      ensure_block(pos_);
      const std::size_t base = cur_block_ * file_->stride_;
      const std::size_t block_end = std::min(limit_, base + cur_->size());
      const std::size_t cap = std::min(max - appended, block_end - pos_);
      const Cell* cells = cur_->data() + (pos_ - base);
      if (cap == 0 || !within(cells[0])) break;
      // Gallop + binary search inside this decoded block.
      std::size_t lo = 1, hi = 1;
      while (hi < cap && within(cells[hi])) {
        lo = hi + 1;
        hi *= 2;
      }
      if (hi > cap) hi = cap;
      const std::size_t n = static_cast<std::size_t>(
          std::partition_point(cells + lo, cells + hi, within) - cells);
      for (std::size_t i = 0; i < n; ++i) {
        out.append(cells[i].key, cells[i].value);
      }
      pos_ += n;
      appended += n;
      if (n < cap) break;  // stopped by the bound, not the block edge
    }
    if (pos_ < limit_) ensure_block(pos_);
    return appended;
  }

 private:
  const Cell& cell_at(std::size_t pos) const {
    return (*cur_)[pos - cur_block_ * file_->stride_];
  }

  const Key& key_at(std::size_t pos) {
    ensure_block(pos);
    return cell_at(pos).key;
  }

  void ensure_block(std::size_t pos) { load_block(pos / file_->stride_); }

  void load_block(std::size_t b) {
    if (b == cur_block_ && cur_) return;
    if (cache_) {
      if (auto pin = cache_->find(file_->file_id(), b)) {
        cur_ = std::static_pointer_cast<const std::vector<Cell>>(pin);
      } else {
        auto decoded = std::make_shared<std::vector<Cell>>();
        file_->decode_block_into(b, *decoded);
        cache_->insert(file_->file_id(), b, decoded, file_->block_charge(b));
        cur_ = std::move(decoded);
      }
    } else {
      // No cache: decode into a private buffer whose slots (and their
      // string capacity) are reused across blocks.
      if (!own_) own_ = std::make_shared<std::vector<Cell>>();
      file_->decode_block_into(b, *own_);
      cur_ = own_;
    }
    cur_block_ = b;
  }

  std::shared_ptr<const RFile> file_;
  BlockCache* cache_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;
  std::size_t cur_block_ = static_cast<std::size_t>(-1);
  std::shared_ptr<const std::vector<Cell>> cur_;  ///< decoded cur_block_
  std::shared_ptr<std::vector<Cell>> own_;        ///< cache-less buffer
};

IterPtr RFile::iterator() const {
  return std::make_unique<EncodedRFileIterator>(shared_from_this());
}

IterPtr RFile::iterator(BlockCache* cache) const {
  return std::make_unique<EncodedRFileIterator>(shared_from_this(), cache);
}

// ---- sampling -----------------------------------------------------------

std::vector<std::string> RFile::sample_rows(std::size_t n) const {
  std::vector<std::string> rows;
  if (count_ == 0 || n == 0) return rows;
  rows.reserve(n);
  // Round the stride UP: a floor stride of size/n oversamples the head
  // and can exhaust the budget before the tail rows are ever visited,
  // skewing parallel-scan partitions toward low keys.
  const std::size_t stride = (count_ + n - 1) / n;
  std::vector<Cell> scratch;
  std::size_t loaded = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < count_ && rows.size() < n; i += stride) {
    const std::size_t b = i / stride_;
    if (b != loaded) {
      decode_block_into(b, scratch);
      loaded = b;
    }
    const std::string& row = scratch[i - b * stride_].key.row;
    if (rows.empty() || rows.back() != row) rows.push_back(row);
  }
  // Always consider the last distinct row so the sample spans the file.
  const std::string& last_row = last_key_.row;
  if (!rows.empty() && rows.back() != last_row) {
    if (rows.size() < n) {
      rows.push_back(last_row);
    } else {
      rows.back() = last_row;
    }
  }
  return rows;
}

// ---- disk format (RFL3) -------------------------------------------------
// One section (wire::write_section: magic | header_len u64 | header |
// crc32(header)), then the block data bytes, concatenated (lengths and
// per-block crc32s live in the header).

bool RFile::write_to(const std::string& path) const {
  util::fault::point(util::fault::sites::kRFileWrite);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::string header;
  wire::put_u64(header, count_);
  wire::put_u64(header, stride_);
  wire::put_u64(header, restart_interval_);
  wire::put_u64(header, bloom_bits_);
  wire::put_u64(header, bloom_.size());
  for (const std::uint64_t word : bloom_) wire::put_u64(header, word);
  if (count_ > 0) {
    wire::put_key(header, first_key_);
    wire::put_key(header, last_key_);
  }
  wire::put_u64(header, blocks_.size());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const EncodedBlock& block = blocks_[b];
    wire::put_key(header, block_first_keys_[b]);
    wire::put_u32(header, block.count);
    wire::put_u32(header, block.raw_bytes);
    wire::put_u32(header, static_cast<std::uint32_t>(block.data.size()));
    wire::put_u8(header, block.compressed ? 1 : 0);
    // Block CRCs are computed here, off the flush/compaction path: only
    // the on-disk copy needs them.
    wire::put_u32(header, crc32(block.data.data(), block.data.size()));
  }
  wire::write_section(out, kMagic, header);
  for (const auto& block : blocks_) {
    out.write(block.data.data(),
              static_cast<std::streamsize>(block.data.size()));
  }
  return static_cast<bool>(out);
}

std::shared_ptr<RFile> RFile::read_from(const std::string& path) {
  util::fault::point(util::fault::sites::kRFileRead);
  std::string bytes;
  if (!wire::read_file(path, bytes)) return nullptr;
  try {
    wire::Cursor file(bytes);
    wire::Cursor c = wire::read_section(file, kMagic);
    const std::uint64_t count = wire::get_u64(c);
    const std::uint64_t stride = wire::get_u64(c);
    const std::uint64_t restart = wire::get_u64(c);
    if (stride == 0 || restart == 0) return nullptr;
    const std::uint64_t bloom_bits = wire::get_u64(c);
    const std::uint64_t bloom_words = wire::get_u64(c);
    if (bloom_words > c.remaining() / sizeof(std::uint64_t)) return nullptr;
    std::vector<std::uint64_t> bloom(bloom_words);
    for (std::uint64_t& word : bloom) word = wire::get_u64(c);
    Key first_key, last_key;
    if (count > 0) {
      first_key = wire::get_key(c);
      last_key = wire::get_key(c);
      if (last_key < first_key) return nullptr;
    }
    const std::uint64_t nblocks = wire::get_u64(c);
    if (nblocks != (count + stride - 1) / stride) return nullptr;
    std::vector<EncodedBlock> blocks;
    std::vector<Key> first_keys;
    std::vector<std::uint32_t> data_lens, crcs;
    blocks.reserve(nblocks);
    first_keys.reserve(nblocks);
    data_lens.reserve(nblocks);
    crcs.reserve(nblocks);
    std::uint64_t cells_seen = 0;
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      Key fk = wire::get_key(c);
      if (!first_keys.empty() && fk < first_keys.back()) return nullptr;
      EncodedBlock block;
      block.count = wire::get_u32(c);
      block.raw_bytes = wire::get_u32(c);
      data_lens.push_back(wire::get_u32(c));
      block.compressed = wire::get_u8(c) != 0;
      crcs.push_back(wire::get_u32(c));
      if (block.count == 0 || block.count > stride) return nullptr;
      cells_seen += block.count;
      blocks.push_back(std::move(block));
      first_keys.push_back(std::move(fk));
    }
    if (!c.at_end()) return nullptr;  // trailing header garbage
    if (cells_seen != count) return nullptr;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      auto& block = blocks[b];
      block.data = wire::get_bytes(file, data_lens[b]);
      if (crc32(block.data.data(), block.data.size()) != crcs[b]) {
        return nullptr;  // per-block corruption (bit flips, torn writes)
      }
    }
    if (!file.at_end()) return nullptr;  // trailing bytes
    return std::shared_ptr<RFile>(new RFile(
        std::move(blocks), std::move(first_keys), std::move(first_key),
        std::move(last_key), count, std::move(bloom),
        static_cast<std::size_t>(bloom_bits),
        static_cast<std::size_t>(stride), static_cast<std::size_t>(restart)));
  } catch (const wire::WireError&) {
    return nullptr;  // foreign magic, bad length, CRC mismatch, truncation
  }
}

}  // namespace graphulo::nosql
