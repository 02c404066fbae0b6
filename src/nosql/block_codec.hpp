#pragma once
// Per-block key/value codec for packed RFile data blocks (the RFL3
// layout): shared-prefix delta compression of (row, family, qualifier,
// visibility) with varint lengths, zigzag-varint timestamp deltas, and
// restart points every K entries at which keys are stored whole.
//
// Graph tables are pathologically prefix-heavy — adjacency rows repeat
// the row key across every edge and D4M exploded schemas share long
// qualifier prefixes — so the common entry is a handful of varint
// bytes plus the key tail that actually changed. Restart points bound
// the decode work of a point lookup: a seek binary-searches the
// restart array (restart entries decode standalone) and then linearly
// decodes at most `restart_interval` entries.
//
// Raw block layout (before any general-purpose compressor):
//   entry*        delta-coded cells, restart entries have all shared
//                 lengths = 0 and an absolute timestamp
//   u32 * n       restart offsets (little-endian, ascending)
//   u32           restart count (>= 1 for any non-empty block)
// Entry:
//   varint shared/non-shared + bytes, for row, family, qualifier,
//   visibility; zigzag varint ts delta vs previous entry (absolute at
//   restarts); u8 flags (bit0 = delete marker); varint value length +
//   value bytes.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nosql/key.hpp"

namespace graphulo::nosql::blockcodec {

// ---- varint primitives ---------------------------------------------------

/// Reads one varint at `*p`, never past `end`; false on truncation or
/// overlong encoding (> 10 bytes).
bool get_varint(const char*& p, const char* end, std::uint64_t& v);

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// ---- block encode / decode ----------------------------------------------

/// Encodes `n` sorted cells into the raw block layout. `restart_interval`
/// is clamped to >= 1; the first entry is always a restart.
std::string encode_block(const Cell* cells, std::size_t n,
                         std::size_t restart_interval);

/// Decodes a raw block into `out`, which is resized to `expected_count`
/// — existing slots keep their string capacity, so a reused buffer
/// decodes without reallocating. Returns false on any malformed input
/// (truncation, shared length exceeding the previous component, bad
/// restart trailer, count mismatch).
bool decode_block(std::string_view raw, std::size_t expected_count,
                  std::vector<Cell>& out);

/// Index of the first entry with key >= `key` inside a raw block
/// (`count` when every entry is smaller). Binary search over the
/// restart array, then a bounded linear decode of keys only (values are
/// skipped). Returns `count` on malformed input — the block-level CRC
/// is the integrity gate; this is a best-effort position.
std::size_t block_lower_bound(std::string_view raw, std::size_t count,
                              std::size_t restart_interval, const Key& key);

}  // namespace graphulo::nosql::blockcodec
