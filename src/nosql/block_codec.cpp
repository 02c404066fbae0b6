#include "nosql/block_codec.hpp"

#include <algorithm>
#include <cstring>

namespace graphulo::nosql::blockcodec {

namespace {

/// Length of the longest common prefix of two strings.
std::size_t shared_prefix(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Longest varint encoding of a 64-bit value.
constexpr std::size_t kMaxVarint = 10;

/// Writes `v` as a varint at `p`; returns the end of what was written.
char* write_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Writes one delta-coded component (`prev == nullptr` at a restart).
char* write_component(char* p, const std::string* prev,
                      const std::string& cur) {
  const std::size_t shared = prev ? shared_prefix(*prev, cur) : 0;
  const std::size_t tail = cur.size() - shared;
  p = write_varint(p, shared);
  p = write_varint(p, tail);
  std::memcpy(p, cur.data() + shared, tail);
  return p + tail;
}

/// Decodes one delta-coded component into `cur`: the first `shared`
/// bytes of `prev` (the previous entry's value) followed by the tail.
/// `cur` keeps its capacity, so a reused slot decodes without
/// allocating.
bool read_component(const char*& p, const char* end, const std::string& prev,
                    std::string& cur) {
  std::uint64_t shared = 0, tail = 0;
  if (!get_varint(p, end, shared) || !get_varint(p, end, tail)) return false;
  if (shared > prev.size()) return false;
  if (static_cast<std::uint64_t>(end - p) < tail) return false;
  cur.resize(static_cast<std::size_t>(shared + tail));
  std::memcpy(cur.data(), prev.data(), static_cast<std::size_t>(shared));
  std::memcpy(cur.data() + shared, p, static_cast<std::size_t>(tail));
  p += tail;
  return true;
}

/// Decodes one delta-coded component in place: `cur` is the previous
/// entry's value on entry and the decoded value on exit (prefix kept,
/// tail replaced — no allocation when capacity suffices).
bool decode_component(const char*& p, const char* end, std::string& cur) {
  std::uint64_t shared = 0, tail = 0;
  if (!get_varint(p, end, shared) || !get_varint(p, end, tail)) return false;
  if (shared > cur.size()) return false;
  if (static_cast<std::uint64_t>(end - p) < tail) return false;
  cur.resize(static_cast<std::size_t>(shared));
  cur.append(p, static_cast<std::size_t>(tail));
  p += tail;
  return true;
}

/// Decoded-key cursor over a raw block's entries (values skipped).
struct KeyCursor {
  Key key;

  /// Decodes the entry at `p`; `restart` resets the delta state.
  bool step(const char*& p, const char* end, bool restart) {
    if (restart) {
      key.row.clear();
      key.family.clear();
      key.qualifier.clear();
      key.visibility.clear();
      key.ts = 0;
    }
    if (!decode_component(p, end, key.row) ||
        !decode_component(p, end, key.family) ||
        !decode_component(p, end, key.qualifier) ||
        !decode_component(p, end, key.visibility)) {
      return false;
    }
    std::uint64_t ts_delta = 0, value_len = 0;
    if (!get_varint(p, end, ts_delta)) return false;
    key.ts += unzigzag(ts_delta);
    if (p == end) return false;
    key.deleted = (*p++ & 1) != 0;
    if (!get_varint(p, end, value_len)) return false;
    if (static_cast<std::uint64_t>(end - p) < value_len) return false;
    p += value_len;
    return true;
  }
};

/// Splits a raw block into its entry region and restart offsets.
/// Returns false when the trailer is malformed.
bool parse_trailer(std::string_view raw, const char*& entries_end,
                   const char*& restarts, std::size_t& num_restarts) {
  if (raw.size() < sizeof(std::uint32_t)) return false;
  num_restarts = get_u32(raw.data() + raw.size() - sizeof(std::uint32_t));
  const std::size_t trailer =
      (num_restarts + 1) * sizeof(std::uint32_t);
  if (num_restarts == 0 || trailer > raw.size()) return false;
  restarts = raw.data() + raw.size() - trailer;
  entries_end = restarts;
  return true;
}

}  // namespace

bool get_varint(const char*& p, const char* end, std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const auto byte = static_cast<std::uint8_t>(*p++);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return true;
  }
  return false;  // overlong
}

std::string encode_block(const Cell* cells, std::size_t n,
                         std::size_t restart_interval) {
  const std::size_t interval = std::max<std::size_t>(1, restart_interval);
  const std::size_t num_restarts =
      std::max<std::size_t>(1, (n + interval - 1) / interval);
  // Encode into per-thread scratch sized for the worst case (every
  // entry's raw bytes, ten maximal varints and its flag byte, plus the
  // restart trailer), then copy out exactly the bytes used: one
  // allocation per block and no bounds checks per byte.
  std::size_t bound = (num_restarts + 1) * sizeof(std::uint32_t);
  for (std::size_t i = 0; i < n; ++i) {
    const Key& k = cells[i].key;
    bound += k.row.size() + k.family.size() + k.qualifier.size() +
             k.visibility.size() + cells[i].value.size() +
             10 * kMaxVarint + 1;
  }
  thread_local std::string scratch;
  if (scratch.size() < bound) scratch.resize(bound);
  char* const base = scratch.data();
  char* p = base;
  char* restarts = base + bound - (num_restarts + 1) * sizeof(std::uint32_t);
  std::uint32_t restart_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool restart = i % interval == 0;
    if (restart) {
      const auto off = static_cast<std::uint32_t>(p - base);
      std::memcpy(restarts + restart_count++ * sizeof(off), &off, sizeof(off));
    }
    const Key& k = cells[i].key;
    const Key* prev = restart ? nullptr : &cells[i - 1].key;
    p = write_component(p, prev ? &prev->row : nullptr, k.row);
    p = write_component(p, prev ? &prev->family : nullptr, k.family);
    p = write_component(p, prev ? &prev->qualifier : nullptr, k.qualifier);
    p = write_component(p, prev ? &prev->visibility : nullptr, k.visibility);
    p = write_varint(p, zigzag(k.ts - (prev ? prev->ts : 0)));
    *p++ = k.deleted ? 1 : 0;
    p = write_varint(p, cells[i].value.size());
    std::memcpy(p, cells[i].value.data(), cells[i].value.size());
    p += cells[i].value.size();
  }
  if (restart_count == 0) {  // canonical empty block: one restart at 0
    const std::uint32_t zero = 0;
    std::memcpy(restarts, &zero, sizeof(zero));
    restart_count = 1;
  }
  // Entries end at or before the trailer's reserved slot; slide the
  // trailer down to follow them.
  std::memmove(p, restarts, restart_count * sizeof(std::uint32_t));
  p += restart_count * sizeof(std::uint32_t);
  std::memcpy(p, &restart_count, sizeof(restart_count));
  p += sizeof(restart_count);
  return std::string(base, static_cast<std::size_t>(p - base));
}

bool decode_block(std::string_view raw, std::size_t expected_count,
                  std::vector<Cell>& out) {
  const char* entries_end = nullptr;
  const char* restarts = nullptr;
  std::size_t num_restarts = 0;
  if (!parse_trailer(raw, entries_end, restarts, num_restarts)) return false;
  out.resize(expected_count);
  const char* p = raw.data();
  std::size_t next_restart = 0;  // index of the next unseen restart offset
  static const Key kNoBase;
  for (std::size_t i = 0; i < expected_count; ++i) {
    Cell& c = out[i];
    // Restart entries are recognized by offset: entry offsets strictly
    // increase and the restart array lists restart-entry offsets in
    // order, so a match is exact. Restarts reset the delta state (the
    // encoder stored absolute values there).
    const auto off = static_cast<std::uint32_t>(p - raw.data());
    const bool restart =
        next_restart < num_restarts &&
        get_u32(restarts + next_restart * sizeof(std::uint32_t)) == off;
    if (restart) ++next_restart;
    if (i == 0 && !restart) return false;  // first entry must restart
    // Delta base: the previous entry, or nothing at a restart (the
    // encoder stored absolute values there).
    const Key& base = restart ? kNoBase : out[i - 1].key;
    if (!read_component(p, entries_end, base.row, c.key.row) ||
        !read_component(p, entries_end, base.family, c.key.family) ||
        !read_component(p, entries_end, base.qualifier, c.key.qualifier) ||
        !read_component(p, entries_end, base.visibility, c.key.visibility)) {
      return false;
    }
    std::uint64_t ts_delta = 0, value_len = 0;
    if (!get_varint(p, entries_end, ts_delta)) return false;
    c.key.ts = base.ts + unzigzag(ts_delta);
    if (p == entries_end) return false;
    c.key.deleted = (*p++ & 1) != 0;
    if (!get_varint(p, entries_end, value_len)) return false;
    if (static_cast<std::uint64_t>(entries_end - p) < value_len) return false;
    c.value.assign(p, static_cast<std::size_t>(value_len));
    p += value_len;
  }
  return p == entries_end;  // no trailing entry garbage
}

std::size_t block_lower_bound(std::string_view raw, std::size_t count,
                              std::size_t restart_interval, const Key& key) {
  if (count == 0) return 0;
  const std::size_t interval = std::max<std::size_t>(1, restart_interval);
  const char* entries_end = nullptr;
  const char* restarts = nullptr;
  std::size_t num_restarts = 0;
  if (!parse_trailer(raw, entries_end, restarts, num_restarts)) return count;
  // Binary search the restart array for the last restart whose key is
  // < `key` (restart entries decode standalone). Invariant: lo's key is
  // < key (virtual restart before the block), hi's is unknown-or->=.
  std::size_t lo = 0, hi = num_restarts;  // search in (lo, hi]
  bool lo_known_less = false;
  {
    std::size_t a = 0, b = num_restarts;  // candidate restarts [a, b)
    while (a < b) {
      const std::size_t mid = a + (b - a) / 2;
      const char* p = raw.data() + get_u32(restarts + mid * sizeof(std::uint32_t));
      KeyCursor cur;
      if (p >= entries_end || !cur.step(p, entries_end, /*restart=*/true)) {
        return count;  // malformed; CRC should have caught this
      }
      if (cur.key < key) {
        a = mid + 1;
        lo = mid;
        lo_known_less = true;
      } else {
        b = mid;
      }
    }
    hi = a;
  }
  if (!lo_known_less && hi == 0) {
    // Even the first restart (the block's first key) is >= key.
    return 0;
  }
  // Linear key-only decode from restart `lo` until an entry >= key.
  std::size_t index = lo * interval;
  const char* p = raw.data() + get_u32(restarts + lo * sizeof(std::uint32_t));
  KeyCursor cur;
  for (std::size_t i = index; i < count; ++i) {
    if (!cur.step(p, entries_end, /*restart=*/i % interval == 0)) {
      return count;
    }
    if (!(cur.key < key)) return i;
  }
  return count;
}

}  // namespace graphulo::nosql::blockcodec
