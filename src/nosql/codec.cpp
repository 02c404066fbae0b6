#include "nosql/codec.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "util/checksum.hpp"

namespace graphulo::nosql {

std::string encode_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) {  // cannot happen for finite doubles in 64 bytes
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  return std::string(buf, ptr);
}

std::optional<double> decode_double(const std::string& bytes) {
  double v = 0.0;
  const char* first = bytes.data();
  const char* last = bytes.data() + bytes.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last || bytes.empty()) return std::nullopt;
  return v;
}

std::string encode_int(std::int64_t v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, ptr);
}

std::optional<std::int64_t> decode_int(const std::string& bytes) {
  std::int64_t v = 0;
  const char* first = bytes.data();
  const char* last = bytes.data() + bytes.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last || bytes.empty()) return std::nullopt;
  return v;
}

std::string encode_u64_be(std::uint64_t v) {
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  return out;
}

std::optional<std::uint64_t> decode_u64_be(const std::string& bytes) {
  if (bytes.size() != 8) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : bytes) {
    v = (v << 8) | static_cast<unsigned char>(c);
  }
  return v;
}

// ---- wire codecs --------------------------------------------------------

namespace wire {

namespace {

std::uint64_t get_le(Cursor& c, std::size_t bytes) {
  if (c.remaining() < bytes) {
    throw WireError("wire: truncated integer (need " + std::to_string(bytes) +
                    " bytes, have " + std::to_string(c.remaining()) + ")");
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(c.data[c.pos + i]))
         << (8 * i);
  }
  c.pos += bytes;
  return v;
}

}  // namespace

void Cursor::expect_end() const {
  if (pos != size) {
    throw WireError("wire: " + std::to_string(size - pos) +
                    " trailing bytes after message end");
  }
}

std::uint8_t get_u8(Cursor& c) { return static_cast<std::uint8_t>(get_le(c, 1)); }
std::uint16_t get_u16(Cursor& c) {
  return static_cast<std::uint16_t>(get_le(c, 2));
}
std::uint32_t get_u32(Cursor& c) {
  return static_cast<std::uint32_t>(get_le(c, 4));
}
std::uint64_t get_u64(Cursor& c) { return get_le(c, 8); }
std::int64_t get_i64(Cursor& c) { return static_cast<std::int64_t>(get_le(c, 8)); }

std::string get_bytes(Cursor& c, std::size_t n) {
  if (c.remaining() < n) {
    throw WireError("wire: truncated bytes (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(c.remaining()) + ")");
  }
  std::string s(c.data + c.pos, n);
  c.pos += n;
  return s;
}

std::string get_string(Cursor& c) { return get_bytes(c, get_u32(c)); }

Key get_key(Cursor& c) {
  Key k;
  k.row = get_string(c);
  k.family = get_string(c);
  k.qualifier = get_string(c);
  k.visibility = get_string(c);
  k.ts = get_i64(c);
  k.deleted = get_u8(c) != 0;
  return k;
}

Cell get_cell(Cursor& c) {
  Cell cell;
  cell.key = get_key(c);
  cell.value = get_string(c);
  return cell;
}

void put_mutation(std::string& out, const Mutation& m) {
  put_string(out, m.row());
  const auto& updates = m.updates();
  if (updates.size() > UINT32_MAX) throw WireError("wire: mutation too large");
  put_u32(out, static_cast<std::uint32_t>(updates.size()));
  for (const auto& u : updates) {
    put_string(out, u.family);
    put_string(out, u.qualifier);
    put_string(out, u.visibility);
    put_i64(out, u.ts);
    put_u8(out, static_cast<std::uint8_t>((u.has_ts ? 1 : 0) |
                                          (u.deleted ? 2 : 0)));
    put_string(out, u.value);
  }
}

Mutation get_mutation(Cursor& c) {
  Mutation m(get_string(c));
  const std::uint32_t count = get_u32(c);
  for (std::uint32_t i = 0; i < count; ++i) {
    ColumnUpdate u;
    u.family = get_string(c);
    u.qualifier = get_string(c);
    u.visibility = get_string(c);
    u.ts = get_i64(c);
    const std::uint8_t flags = get_u8(c);
    if (flags > 3) throw WireError("wire: bad ColumnUpdate flags");
    u.has_ts = (flags & 1) != 0;
    u.deleted = (flags & 2) != 0;
    u.value = get_string(c);
    m.add_update(std::move(u));
  }
  return m;
}

void put_range(std::string& out, const Range& r) {
  put_u8(out, static_cast<std::uint8_t>(
                  (r.has_start ? 1 : 0) | (r.start_inclusive ? 2 : 0) |
                  (r.has_end ? 4 : 0) | (r.end_inclusive ? 8 : 0)));
  if (r.has_start) put_key(out, r.start);
  if (r.has_end) put_key(out, r.end);
}

Range get_range(Cursor& c) {
  const std::uint8_t flags = get_u8(c);
  if (flags > 15) throw WireError("wire: bad Range flags");
  Range r;
  r.has_start = (flags & 1) != 0;
  r.start_inclusive = (flags & 2) != 0;
  r.has_end = (flags & 4) != 0;
  r.end_inclusive = (flags & 8) != 0;
  if (r.has_start) r.start = get_key(c);
  if (r.has_end) r.end = get_key(c);
  return r;
}

void write_section(std::ostream& out, std::uint32_t magic,
                   const std::string& body) {
  std::string head;
  put_u32(head, magic);
  put_u64(head, body.size());
  std::string tail;
  put_u32(tail, util::crc32(body.data(), body.size()));
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
}

Cursor read_section(Cursor& c, std::uint32_t magic) {
  if (get_u32(c) != magic) throw WireError("section: foreign magic");
  // The bytes left bound the length before anything is read past it: a
  // flipped high bit reads as corruption, not as a request for exabytes.
  const std::uint64_t len = get_u64(c);
  if (len > c.remaining()) {
    throw WireError("section: length " + std::to_string(len) +
                    " exceeds the " + std::to_string(c.remaining()) +
                    " bytes left");
  }
  const Cursor body(c.data + c.pos, static_cast<std::size_t>(len));
  c.pos += body.size;
  if (get_u32(c) != util::crc32(body.data, body.size)) {
    throw WireError("section: CRC mismatch");
  }
  return body;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) return false;
  out.resize(static_cast<std::size_t>(size));
  return static_cast<bool>(in.read(out.data(), size));
}

}  // namespace wire

}  // namespace graphulo::nosql
