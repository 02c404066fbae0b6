#pragma once
// Value and key codecs.
//
// Values in the store are raw bytes; the Graphulo layers stores numbers
// in them. Two encodings are provided:
//   * decimal text ("3.5") — human-readable, what D4M uses; and
//   * fixed-width big-endian binary — compact, order-preserving for
//     unsigned integers.
// Row/column keys that represent vertex indices use zero-padded decimal
// so lexicographic key order equals numeric order (util::zero_pad).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "nosql/key.hpp"
#include "nosql/mutation.hpp"

namespace graphulo::nosql {

/// Encodes a double as decimal text (shortest round-trip form).
std::string encode_double(double v);

/// Parses decimal text; std::nullopt on malformed input.
std::optional<double> decode_double(const std::string& bytes);

/// Encodes an int64 as decimal text.
std::string encode_int(std::int64_t v);

/// Parses a decimal int64; std::nullopt on malformed input.
std::optional<std::int64_t> decode_int(const std::string& bytes);

/// 8-byte big-endian encoding of an unsigned integer; lexicographic
/// order of the encodings equals numeric order.
std::string encode_u64_be(std::uint64_t v);

/// Decodes an 8-byte big-endian unsigned integer; nullopt if the input
/// is not exactly 8 bytes.
std::optional<std::uint64_t> decode_u64_be(const std::string& bytes);

// ---- wire codecs --------------------------------------------------------
// Fixed-width little-endian binary encoding of the store's data types,
// and the one byte codec of every format that crosses a process or
// disk boundary: the RPC wire (src/rpc), the WAL (wal.hpp), the
// checkpoint main section, which also holds every tablet's file set
// (checkpoint.hpp), and the RFL3 RFile header (rfile.hpp). Strings are
// u32-length-prefixed. The checkpoint main file and the RFile header
// share one frame, the section (write_section / read_section):
//   magic u32 | len u64 | body | crc32(body) u32
// Decoding is fully bounds-checked: malformed or truncated input throws
// WireError, never reads out of bounds. The stored formats are read
// whole (read_file) and decoded from memory, so a corrupt length is
// checked against the bytes the file holds. Each decoder catches
// WireError at its own boundary — the RPC layer maps it to a
// bad-request rejection, the stored formats to a rejected file or the
// end of a torn tail.

namespace wire {

/// Malformed or truncated wire bytes (bad length prefix, truncated
/// field, trailing garbage where a message end was expected).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bounds-checked read cursor over a byte buffer (non-owning).
struct Cursor {
  const char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  Cursor() = default;
  Cursor(const char* d, std::size_t n) : data(d), size(n) {}
  explicit Cursor(const std::string& s) : data(s.data()), size(s.size()) {}

  std::size_t remaining() const noexcept { return size - pos; }
  bool at_end() const noexcept { return pos == size; }

  /// Throws WireError unless the cursor is fully consumed — catches
  /// trailing garbage after a complete message.
  void expect_end() const;
};

// Writers are inline: the WAL encodes every mutation through them. Each
// integer is one append of the value's own bytes, which are its
// little-endian encoding on every host this builds for (block_codec's
// packed blocks copy host-order integers too).
static_assert(std::endian::native == std::endian::little,
              "stored formats and the wire are little-endian");
namespace detail {
template <typename T>
inline void put_le(std::string& out, T v) {
  static_assert(std::is_unsigned_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}
}  // namespace detail

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
inline void put_u16(std::string& out, std::uint16_t v) { detail::put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { detail::put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { detail::put_le(out, v); }
inline void put_i64(std::string& out, std::int64_t v) {
  detail::put_le(out, static_cast<std::uint64_t>(v));
}

inline void put_string(std::string& out, const std::string& s) {
  if (s.size() > UINT32_MAX) throw WireError("wire: string too long");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

std::uint8_t get_u8(Cursor& c);
std::uint16_t get_u16(Cursor& c);
std::uint32_t get_u32(Cursor& c);
std::uint64_t get_u64(Cursor& c);
std::int64_t get_i64(Cursor& c);
/// The next `n` raw bytes (no length prefix).
std::string get_bytes(Cursor& c, std::size_t n);
std::string get_string(Cursor& c);

/// Cell-model codecs: Key (row, family, qualifier, visibility, ts,
/// delete marker), Cell (key + value), Mutation (row + column updates)
/// and Range (optional bounds + inclusivity flags) round-trip
/// byte-exactly.
inline void put_key(std::string& out, const Key& key) {
  put_string(out, key.row);
  put_string(out, key.family);
  put_string(out, key.qualifier);
  put_string(out, key.visibility);
  put_i64(out, key.ts);
  put_u8(out, key.deleted ? 1 : 0);
}
Key get_key(Cursor& c);
inline void put_cell(std::string& out, const Cell& cell) {
  put_key(out, cell.key);
  put_string(out, cell.value);
}
Cell get_cell(Cursor& c);
void put_mutation(std::string& out, const Mutation& m);
Mutation get_mutation(Cursor& c);
void put_range(std::string& out, const Range& r);
Range get_range(Cursor& c);

/// Writes one section frame (magic u32 | len u64 | body | crc32(body)
/// u32) to `out`; the caller checks the stream state.
void write_section(std::ostream& out, std::uint32_t magic,
                   const std::string& body);

/// Reads one section frame at `c` and returns a cursor over its body,
/// verified against its CRC; `c` is left just past the frame. Throws
/// WireError on a foreign magic, a length longer than `c` holds,
/// truncation or a CRC mismatch.
Cursor read_section(Cursor& c, std::uint32_t magic);

/// Reads the file at `path` whole into `out`; false if it cannot be
/// opened or read. The stored-format decoders walk the bytes with a
/// Cursor, so every length is checked against what the file holds.
bool read_file(const std::string& path, std::string& out);

}  // namespace wire

}  // namespace graphulo::nosql
