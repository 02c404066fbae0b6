#pragma once
// Leveled file-set versions, LevelDB style. A Version is an immutable
// snapshot of one tablet's files arranged in levels:
//
//   L0   raw memtable flushes; key ranges may overlap; ordered newest
//        first by data seq (scans must consult every L0 file).
//   L1+  non-overlapping key ranges, sorted by first_key; a point read
//        consults at most one file per level.
//
// VersionSet owns the current Version and installs successors
// atomically by applying VersionEdits. Readers grab a shared_ptr
// snapshot and are never blocked by — or exposed to — an in-flight
// install. The `manifest.install` fault site fires before any state
// changes, so a fired fault leaves the previous version intact (the
// caller discards its compaction output and retries later). A
// checkpoint persists each tablet's file set as (file id, level, seq)
// per file and rebuilds the rest with FileMeta::describe on recovery
// (see checkpoint.hpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
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
/// `file` is the runtime handle; for live files `file_id` always
/// equals `file->file_id()`, so BlockCache eviction can key off it, and
/// doubles as the checkpoint artifact name (`f<id>.rf`).
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
/// ids removed.
struct VersionEdit {
  std::vector<FileMeta> added;
  std::vector<std::uint64_t> removed;
};

/// Leveled-compaction tuning knobs (per table).
struct CompactionConfig {
  /// L0 file count that triggers an L0 -> L1 compaction.
  std::size_t level0_trigger = 4;
  /// Deepest level (levels are 0..max_levels-1).
  std::size_t max_levels = 5;
  /// Byte budget for L1; level l holds level_base_bytes *
  /// level_multiplier^(l-1).
  std::uint64_t level_base_bytes = 1u << 20;
  std::uint64_t level_multiplier = 8;

  std::uint64_t budget_for(std::size_t level) const {
    std::uint64_t b = level_base_bytes;
    for (std::size_t l = 1; l < level; ++l) b *= level_multiplier;
    return b;
  }
};

/// Immutable snapshot of a tablet's leveled file set.
struct Version {
  /// levels[0] newest-first by seq; levels[l>=1] sorted by first_key
  /// with pairwise-disjoint ranges. Trailing empty levels are trimmed.
  std::vector<std::vector<FileMeta>> levels;

  std::size_t file_count() const;
  std::uint64_t total_bytes() const;
  std::uint64_t total_cells() const;
  std::uint64_t level_bytes(std::size_t level) const;
  bool empty() const { return file_count() == 0; }

  /// Files in `level` whose key range intersects [lo, hi].
  std::vector<FileMeta> overlapping(std::size_t level, const Key& lo,
                                    const Key& hi) const;

  /// True when any file STRICTLY BELOW `level` (i.e. at a deeper level)
  /// overlaps [lo, hi] — if so, delete markers in that range must
  /// survive a compaction whose output lands at `level`.
  bool any_overlap_below(std::size_t level, const Key& lo,
                         const Key& hi) const;

  /// All files, L0 newest-first, then L1, L2, ... in key order — the
  /// order a MergeIterator wants (lower child index = newer data).
  std::vector<FileMeta> all_files() const;
};

/// A compaction the picker selected: rewrite `inputs` into one file at
/// `output_level`. Inputs are ordered newest-data-first (L0 files by
/// seq desc, then next-level overlap), ready for a MergeIterator.
struct CompactionPick {
  std::size_t input_level = 0;
  std::size_t output_level = 0;
  std::vector<FileMeta> inputs;
  /// Output is bottommost for its key range: no live file at a deeper
  /// level overlaps it, so delete markers (and shadowed versions) may
  /// be dropped — provided the tablet also has no frozen memtables.
  bool bottommost = false;
};

/// Holds the current Version; applies edits atomically.
class VersionSet {
 public:
  VersionSet() : current_(std::make_shared<const Version>()) {}

  /// Snapshot of the current version (cheap; never null).
  std::shared_ptr<const Version> current() const { return current_; }

  /// Builds the successor version and installs it atomically. Fires
  /// `manifest.install` (TransientError) BEFORE any state changes.
  /// Returns false — with no state change — when a removed file id is
  /// not present (the compaction raced a concurrent rewrite and its
  /// output must be discarded). Throws std::logic_error if the edit
  /// would break the level invariants (overlap inside L1+).
  bool apply(const VersionEdit& edit);

 private:
  std::shared_ptr<const Version> current_;
};

/// Chooses the next compaction for `v` under `cfg`, or nullopt when no
/// level is over budget. `pressure` is the back-pressure ceiling state:
/// when set, the picker shrinks the file count even if no size trigger
/// is due.
std::optional<CompactionPick> pick_compaction(const Version& v,
                                              const CompactionConfig& cfg,
                                              bool pressure);

}  // namespace graphulo::nosql
