#pragma once
// MVCC snapshot scans: a snapshot handle pins one consistent cut of a
// tablet — the memtable contents, frozen memtables, and immutable file
// set as they stood at one instant — so a long-running scan (or a
// TableMult partition worker) reads a stable view while writers,
// flushes, and compactions proceed untouched.
//
// The cut is a set of pins, taken in O(1) under the tablet lock: the
// active memtable together with its mutation count (a MemtablePin,
// memtable.hpp), each frozen memtable the same way, the current
// Version, plus the table's immutable config and block cache they are
// read with, both shared rather than copied.
// Writers keep inserting into the pinned active memtable; a reader
// skips every entry newer than its count, so it sees whole mutations
// only and exactly those applied before the pin. Readers never consult
// live tablet state again, so consistency is immediate, and nothing a
// writer, flush, or compaction does can change what a handle returns:
// compaction follows the delete-marker rule of DESIGN.md §11 alone and
// never waits for, or holds back GC for, an open handle.
//
// What an open handle costs is memory: it keeps its cut's RFiles and
// memtables alive (arenas included), including ones a later compaction
// or flush has retired, until the handle and every scan stack built
// from it are destroyed. A pinned active memtable also keeps growing
// with writes the handle cannot see, until the tablet freezes or
// flushes it. Close handles promptly; distributed scan leases bound an
// abandoned one through their TTL.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nosql/iterator.hpp"
#include "nosql/key.hpp"
#include "nosql/memtable.hpp"
#include "nosql/table_config.hpp"
#include "nosql/tablet.hpp"
#include "nosql/version_set.hpp"

namespace graphulo::nosql {

class BlockCache;

/// The pinned sources of one consistent per-tablet cut.
struct PinnedSources {
  /// The active memtable and its mutation count at pin time (no
  /// memtable when it was empty).
  MemtablePin active;
  /// Frozen memtables, newest first, each with its freeze data-seq.
  std::vector<std::pair<std::uint64_t, MemtablePin>> frozen;
  std::shared_ptr<const Version> version;
};

/// The read stack over pinned sources — the one definition of "the read
/// view", shared by live tablet scans and snapshot scans. Merges newest
/// source first: memtable, then frozen memtables and L0 files
/// interleaved by data seq, then one seek-pruned LevelIterator per
/// sorted level, each sharing `cache` (null = no block cache). With
/// `config` the merge is resolved for reading: deletes -> versioning ->
/// the config's scan-scope iterators, and the files actually opened are
/// counted into the scan.files_consulted histogram when the stack dies.
/// Without it (nullptr) the raw merge is returned, versions and delete
/// markers included (diagnostics, split). The stack owns everything it
/// reads, so it may outlive the tablet or handle it was built from.
IterPtr read_stack(const PinnedSources& sources,
                   const std::shared_ptr<BlockCache>& cache,
                   const TableConfig* config);

/// Wraps `source` with every iterator in `settings` matching `scope`,
/// priority order (lowest first = closest to the data).
IterPtr apply_scope_iterators(IterPtr source,
                              const std::vector<IteratorSetting>& settings,
                              unsigned scope);

/// One tablet's pinned cut, from Tablet::open_snapshot(): a
/// self-contained value holding the cut's sources and sharing the
/// table's config and block cache, with no reference to the tablet, so
/// it stays readable after its table is deleted. Immutable after open
/// and safe to share across scan threads; each scan_stack() call builds
/// a fresh independent stack that may outlive the handle. Open handles
/// are counted by the snapshot.live gauge.
class TabletSnapshot {
 public:
  TabletSnapshot(TabletExtent extent, PinnedSources sources,
                 std::shared_ptr<BlockCache> cache,
                 std::shared_ptr<const TableConfig> config);
  ~TabletSnapshot();
  TabletSnapshot(const TabletSnapshot&) = delete;
  TabletSnapshot& operator=(const TabletSnapshot&) = delete;

  const TabletExtent& extent() const noexcept { return extent_; }

  /// Full scan stack over the pinned cut (read_stack with the table's
  /// config).
  IterPtr scan_stack() const {
    return read_stack(sources_, cache_, config_.get());
  }

 private:
  TabletExtent extent_;
  PinnedSources sources_;
  std::shared_ptr<BlockCache> cache_;
  std::shared_ptr<const TableConfig> config_;
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
