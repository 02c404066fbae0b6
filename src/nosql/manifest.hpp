#pragma once
// MANIFEST: a checksummed, append-only log of immutable VersionEdit
// records describing a tablet file set — which RFiles exist, at which
// level, and over which key range. The manifest replaces the raw-cell
// catalog snapshot as the durable source of truth for flushed data:
// a checkpoint persists each live RFile plus one manifest whose replay
// reconstructs the exact leveled structure (recovery is then
// byte-identical, not merely cell-identical).
//
// Record format (little-endian, encoded through nosql::wire):
//   u32 payload_len | u32 crc32(payload) | payload
// Payload:
//   table | extent_start_present(u8) | extent_start |
//   n_added(u64) | n_added x FileMetaRecord | n_removed(u64) | u64 ids
// FileMetaRecord:
//   file_id(u64) | level(u64) | seq(u64) | cells(u64) | bytes(u64) |
//   first_key | last_key            (wire::put_key: ts and delete flag
//                                    included)
//
// Replay is torn-tail tolerant: decoding stops cleanly at the first
// short, corrupt, CRC-mismatched or undecodable record and reports how
// many bytes were valid. Fault sites: writes pass through `manifest.append`
// (before any bytes reach the stream, so a fired fault has no durable
// effect and the caller may rewrite from scratch).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nosql/key.hpp"
#include "nosql/rfile.hpp"

namespace graphulo::nosql {

/// Orders keys by COLUMN position only — (row, family, qualifier,
/// visibility), timestamp and delete flag excluded. All level-overlap
/// logic compares columns, never full keys: full-key order is
/// timestamp-DESCENDING within a column, so a newer cell of column C
/// sorts before an older one and interval arithmetic over full keys
/// would conclude two files holding different versions of C are
/// disjoint. A file "contains" a column if it holds ANY version of it.
/// Returns <0, 0, >0 like strcmp.
int compare_columns(const Key& a, const Key& b) noexcept;

/// Metadata for one immutable RFile in a tablet's leveled file set.
/// `file` is the runtime handle (null in freshly replayed edits until
/// recovery reloads the bytes); `file_id` doubles as the durable file
/// number (checkpoint artifact `f<id>.rf`) and, for live files, always
/// equals `file->file_id()` so BlockCache eviction can key off it.
struct FileMeta {
  std::uint64_t file_id = 0;
  int level = 0;
  std::uint64_t seq = 0;  ///< data seq of the newest input (L0 ordering)
  std::uint64_t cells = 0;
  std::uint64_t bytes = 0;
  Key first_key;
  Key last_key;
  std::shared_ptr<RFile> file;

  /// Wraps a live RFile. Precondition: `rf` is non-empty.
  static FileMeta describe(std::shared_ptr<RFile> rf, int level,
                           std::uint64_t seq);

  /// True when this file's COLUMN range intersects [lo, hi] — a file
  /// holding any version (or a delete marker) of a column in the span
  /// overlaps it, regardless of timestamps.
  bool overlaps(const Key& lo, const Key& hi) const {
    return compare_columns(last_key, lo) >= 0 &&
           compare_columns(hi, first_key) >= 0;
  }
};

/// One immutable mutation of a tablet's file set: files added and file
/// ids removed, tagged with the owning table and tablet extent start so
/// a single manifest can describe a whole instance.
struct VersionEdit {
  std::string table;
  bool has_extent_start = false;  ///< false = first tablet (-inf start)
  std::string extent_start;
  std::vector<FileMeta> added;
  std::vector<std::uint64_t> removed;
};

/// Serialises one VersionEdit as a framed record (len | crc | payload).
std::string encode_version_edit(const VersionEdit& edit);

/// Appends framed VersionEdit records to a file. The writer truncates
/// on open: checkpoint retries rewrite the manifest wholesale rather
/// than appending duplicates.
class ManifestWriter {
 public:
  /// Opens (truncating) `path`. Throws TransientError on I/O failure.
  explicit ManifestWriter(const std::string& path);

  /// Appends one record. Fires the `manifest.append` fault site before
  /// writing; throws TransientError on I/O failure.
  void append(const VersionEdit& edit);

  /// Flushes buffered bytes. Throws TransientError on I/O failure.
  void sync();

  std::size_t records_written() const { return records_; }

 private:
  std::string path_;
  std::unique_ptr<std::ofstream> out_;
  std::size_t records_ = 0;
};

/// Result of replaying a manifest file.
struct ManifestReplay {
  std::vector<VersionEdit> edits;
  std::size_t valid_bytes = 0;  ///< prefix that decoded + checksummed clean
  bool truncated = false;       ///< a torn/corrupt tail was discarded
};

/// Replays every valid record in `path` (missing file = zero edits,
/// not an error — an empty instance has an empty manifest). Stops at
/// the first torn or corrupt record.
ManifestReplay replay_manifest(const std::string& path);

}  // namespace graphulo::nosql
