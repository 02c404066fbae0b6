#include "nosql/manifest.hpp"

#include <fstream>
#include <stdexcept>

#include "nosql/codec.hpp"
#include "util/checksum.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace graphulo::nosql {

namespace {

constexpr std::size_t kRecordHead = 2 * sizeof(std::uint32_t);  // len | crc

VersionEdit decode_payload(wire::Cursor& c) {
  VersionEdit edit;
  edit.table = wire::get_string(c);
  edit.has_extent_start = wire::get_u8(c) != 0;
  edit.extent_start = wire::get_string(c);
  const std::uint64_t n_added = wire::get_u64(c);
  for (std::uint64_t i = 0; i < n_added; ++i) {
    FileMeta m;
    m.file_id = wire::get_u64(c);
    m.level = static_cast<int>(wire::get_u64(c));
    m.seq = wire::get_u64(c);
    m.cells = wire::get_u64(c);
    m.bytes = wire::get_u64(c);
    m.first_key = wire::get_key(c);
    m.last_key = wire::get_key(c);
    edit.added.push_back(std::move(m));
  }
  const std::uint64_t n_removed = wire::get_u64(c);
  for (std::uint64_t i = 0; i < n_removed; ++i) {
    edit.removed.push_back(wire::get_u64(c));
  }
  c.expect_end();
  return edit;
}

}  // namespace

int compare_columns(const Key& a, const Key& b) noexcept {
  if (int c = a.row.compare(b.row)) return c;
  if (int c = a.family.compare(b.family)) return c;
  if (int c = a.qualifier.compare(b.qualifier)) return c;
  return a.visibility.compare(b.visibility);
}

FileMeta FileMeta::describe(std::shared_ptr<RFile> rf, int level,
                            std::uint64_t seq) {
  FileMeta m;
  m.file_id = rf->file_id();
  m.level = level;
  m.seq = seq;
  m.cells = rf->entry_count();
  m.bytes = rf->approximate_bytes();
  m.first_key = rf->first_key();
  m.last_key = rf->last_key();
  m.file = std::move(rf);
  return m;
}

std::string encode_version_edit(const VersionEdit& edit) {
  std::string payload;
  wire::put_string(payload, edit.table);
  wire::put_u8(payload, edit.has_extent_start ? 1 : 0);
  wire::put_string(payload, edit.extent_start);
  wire::put_u64(payload, edit.added.size());
  for (const FileMeta& m : edit.added) {
    wire::put_u64(payload, m.file_id);
    wire::put_u64(payload, static_cast<std::uint64_t>(m.level));
    wire::put_u64(payload, m.seq);
    wire::put_u64(payload, m.cells);
    wire::put_u64(payload, m.bytes);
    // Keys are encoded in full — timestamp and delete flag included — so
    // a replayed FileMeta prunes scans exactly as the live one did.
    wire::put_key(payload, m.first_key);
    wire::put_key(payload, m.last_key);
  }
  wire::put_u64(payload, edit.removed.size());
  for (const std::uint64_t id : edit.removed) wire::put_u64(payload, id);

  std::string record;
  wire::put_u32(record, static_cast<std::uint32_t>(payload.size()));
  wire::put_u32(record, util::crc32(payload.data(), payload.size()));
  record.append(payload);
  return record;
}

ManifestWriter::ManifestWriter(const std::string& path) : path_(path) {
  out_ = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::trunc);
  if (!*out_) {
    throw util::TransientError("manifest: cannot open " + path);
  }
}

void ManifestWriter::append(const VersionEdit& edit) {
  // The fault site precedes the write: a fired fault leaves the stream
  // untouched and the caller rewrites the whole manifest on retry.
  util::fault::point(util::fault::sites::kManifestAppend);
  const std::string record = encode_version_edit(edit);
  out_->write(record.data(), static_cast<std::streamsize>(record.size()));
  if (!*out_) {
    throw util::TransientError("manifest: append failed on " + path_);
  }
  ++records_;
}

void ManifestWriter::sync() {
  out_->flush();
  if (!*out_) {
    throw util::TransientError("manifest: sync failed on " + path_);
  }
}

ManifestReplay replay_manifest(const std::string& path) {
  ManifestReplay result;
  std::string bytes;
  if (!wire::read_file(path, bytes)) return result;
  wire::Cursor c(bytes);
  try {
    while (c.remaining() >= kRecordHead) {
      const std::uint32_t len = wire::get_u32(c);
      const std::uint32_t stored_crc = wire::get_u32(c);
      if (len > c.remaining()) break;  // torn tail
      const char* payload = c.data + c.pos;
      if (util::crc32(payload, len) != stored_crc) break;
      wire::Cursor record(payload, len);
      result.edits.push_back(decode_payload(record));
      c.pos += len;
      result.valid_bytes = c.pos;
    }
  } catch (const wire::WireError&) {
    // A record that checksums clean but does not decode ends the
    // replay like a torn one.
  }
  result.truncated = result.valid_bytes != bytes.size();
  if (result.truncated) {
    GRAPHULO_WARN << "manifest: discarding "
                  << (bytes.size() - result.valid_bytes)
                  << " torn/corrupt trailing bytes in " << path;
  }
  return result;
}

}  // namespace graphulo::nosql
