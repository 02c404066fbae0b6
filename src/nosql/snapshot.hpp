#pragma once
// MVCC snapshot scans: a snapshot handle pins one consistent cut of a
// tablet — the memtable contents, frozen memtables, and immutable file
// set as they stood at one instant — so a long-running scan (or a
// TableMult partition worker) reads a stable view while writers,
// flushes, and compactions proceed untouched.
//
// The cut is STRUCTURAL, not filtered: open_snapshot() captures, under
// the tablet lock, shared_ptrs to every immutable source (a memtable
// snapshot, each frozen memtable's cell vector, the current Version)
// plus the table config they are read with. Readers never consult live
// tablet state again, so consistency is immediate, and nothing a
// writer, flush, or compaction does can change what a handle returns:
// compaction follows the delete-marker rule of DESIGN.md §11 alone and
// never waits for, or holds back GC for, an open handle.
//
// What an open handle costs is memory: it keeps its cut's RFiles and
// frozen memtables alive, including ones a later compaction or flush
// has retired, until the handle is destroyed. Close handles promptly;
// distributed scan leases bound an abandoned one through their TTL.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nosql/iterator.hpp"
#include "nosql/key.hpp"
#include "nosql/table_config.hpp"
#include "nosql/tablet.hpp"
#include "nosql/version_set.hpp"

namespace graphulo::nosql {

class BlockCache;

/// The pinned immutable sources of one consistent per-tablet cut.
struct PinnedSources {
  /// Active-memtable cells at pin time (null when it was empty).
  std::shared_ptr<const std::vector<Cell>> memtable;
  /// Frozen memtables, newest first, each with its freeze data-seq.
  std::vector<std::pair<std::uint64_t,
                        std::shared_ptr<const std::vector<Cell>>>>
      frozen;
  std::shared_ptr<const Version> version;
};

/// The read stack over pinned sources — the one definition of "the read
/// view", shared by live tablet scans and snapshot scans. Merges newest
/// source first: memtable, then frozen memtables and L0 files
/// interleaved by data seq, then one seek-pruned LevelIterator per
/// sorted level. With `config` the merge is resolved for reading:
/// deletes -> versioning -> the config's scan-scope iterators, and the
/// files actually opened are counted into the scan.files_consulted
/// histogram when the stack dies. Without it (nullptr) the raw merge is
/// returned, versions and delete markers included (diagnostics, split).
IterPtr read_stack(const PinnedSources& sources, BlockCache* cache,
                   const TableConfig* config);

/// Wraps `source` with every iterator in `settings` matching `scope`,
/// priority order (lowest first = closest to the data).
IterPtr apply_scope_iterators(IterPtr source,
                              const std::vector<IteratorSetting>& settings,
                              unsigned scope);

/// One tablet's pinned cut, from Tablet::open_snapshot(): a
/// self-contained value holding the cut's sources and the table config
/// captured with them, and no reference to the tablet. Immutable after
/// open and safe to share across scan threads; each scan_stack() call
/// builds a fresh independent stack. Open handles are counted by the
/// snapshot.live gauge.
class TabletSnapshot {
 public:
  TabletSnapshot(TabletExtent extent, PinnedSources sources,
                 BlockCache* cache, TableConfig config);
  ~TabletSnapshot();
  TabletSnapshot(const TabletSnapshot&) = delete;
  TabletSnapshot& operator=(const TabletSnapshot&) = delete;

  const TabletExtent& extent() const noexcept { return extent_; }

  /// Full scan stack over the pinned cut (read_stack with the captured
  /// config).
  IterPtr scan_stack() const {
    return read_stack(sources_, cache_, &config_);
  }

 private:
  TabletExtent extent_;
  PinnedSources sources_;
  BlockCache* cache_;
  /// Captured at open so the cut's read semantics are as stable as its
  /// data (a later attach_iterator must not change what an open
  /// snapshot returns).
  TableConfig config_;
};

/// A whole-table snapshot: one pinned cut per tablet, captured in
/// extent order by Instance::open_snapshot(). Self-contained — scans
/// iterate these handles directly, so later splits or tablet reshuffles
/// in the live table cannot perturb an open snapshot.
class Snapshot {
 public:
  Snapshot(std::string table,
           std::vector<std::shared_ptr<TabletSnapshot>> tablets)
      : table_(std::move(table)), tablets_(std::move(tablets)) {}

  const std::string& table_name() const noexcept { return table_; }

  const std::vector<std::shared_ptr<TabletSnapshot>>& tablets()
      const noexcept {
    return tablets_;
  }

  /// Tablet cuts whose extents intersect `range`, in extent order.
  std::vector<std::shared_ptr<TabletSnapshot>> tablets_for_range(
      const Range& range) const;

 private:
  std::string table_;
  std::vector<std::shared_ptr<TabletSnapshot>> tablets_;
};

}  // namespace graphulo::nosql
