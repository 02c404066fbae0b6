#pragma once
// A tablet: one contiguous row-range shard of a table, consisting of an
// in-memory write buffer (memtable), zero or more frozen (immutable)
// memtables awaiting flush, and a LEVELED set of immutable sorted files
// — the LevelDB arrangement grafted onto the Accumulo tablet model.
// All public methods are thread-safe. The tablet shares its table's
// immutable TableConfig and block cache, so it, its snapshots and its
// queued background tasks read them without the lock, and a tablet
// handle stays usable after delete_table.
//
// File layout (see version_set.hpp): L0 holds raw memtable flushes
// whose key ranges may overlap; L1+ hold files with disjoint key
// ranges, so a point read consults at most one file per sorted level.
// The file set is an immutable Version installed atomically through a
// VersionSet; scans snapshot the current version and are never blocked
// by an install. A compaction picker (level fullness: L0 file-count
// trigger, per-level byte budgets) selects a victim slice — all of L0
// plus its next-level overlap, or one over-budget file plus its
// overlap — and rewrites just that slice. Delete markers (and shadowed
// versions) drop only when the output is bottommost for its key range
// AND nothing is frozen, i.e. the key can no longer exist anywhere
// deeper; partial compactions keep them for scan-time resolution.
//
// Memtables: the tablet writes into one active Memtable (memtable.hpp)
// under its mutex and reads by pinning: a pin is the memtable object
// plus its mutation count, taken in O(1) under the lock, and readers
// then walk the skiplist without the lock. A flush or a freeze never
// clears a memtable, since readers may still hold it: it moves the
// active memtable aside (into the frozen list, or drops the tablet's
// reference after the flush lands) and starts a fresh one.
//
// Maintenance: two tasks bound a tablet's memory and file count. The
// minor task writes the frozen memtables out, oldest first; the major
// task runs one picked compaction. A write that fills the active
// memtable freezes it (an O(1) move into the frozen list) and queues the
// minor task, plus the major task when the picker has work. With a
// CompactionScheduler attached, its pool runs them; without one, or
// when the pool refuses them, the writer that queued them runs them
// before apply() returns. Either way a task releases the tablet lock for
// its build or merge and retakes it for the install, so other writers
// and scans go on meanwhile, and it contains its own failure: the
// memtable stays frozen, or the inputs stay, until the next trigger or
// an explicit flush(). A task runs on one thread at a time and the
// in-flight flags name its owner: a writer that fills a memtable while
// the minor task runs only freezes it, and the running drain picks it
// up. A completed install re-checks the picker, so cascades (L0->L1
// overflowing L1) drain. Back-pressure: writers block when the file
// count reaches TableConfig::max_tablet_files or too many frozen
// memtables pile up, until the tasks catch up; a blocked writer with
// nothing in flight runs the queued tasks itself.
//
// Ordering: minor flushes install in data-seq order (oldest frozen
// first), so every live file is older than every pending frozen
// memtable and an L0 compaction that takes all current L0 files can
// never interleave with a landing flush.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "nosql/block_cache.hpp"
#include "nosql/compaction_scheduler.hpp"
#include "nosql/iterator.hpp"
#include "nosql/memtable.hpp"
#include "nosql/mutation.hpp"
#include "nosql/rfile.hpp"
#include "nosql/table_config.hpp"
#include "nosql/version_set.hpp"

namespace graphulo::nosql {

class TabletSnapshot;   // snapshot.hpp — a pinned MVCC cut of one tablet
struct PinnedSources;   // snapshot.hpp — the cut's pinned sources

/// The row interval a tablet covers: [start_row, end_row), where an
/// empty string means unbounded on that side.
struct TabletExtent {
  std::string start_row;  ///< inclusive; "" = -infinity
  std::string end_row;    ///< exclusive; "" = +infinity

  bool contains_row(const std::string& row) const noexcept {
    if (!start_row.empty() && row < start_row) return false;
    if (!end_row.empty() && row >= end_row) return false;
    return true;
  }
};

/// Point-in-time statistics for one tablet.
struct TabletStats {
  /// Entries in the active memtable, shadowed identical-key entries
  /// included (the count TableConfig::flush_entries bounds).
  std::size_t memtable_entries = 0;
  std::size_t frozen_memtables = 0;  ///< immutable memtables awaiting flush
  std::size_t frozen_entries = 0;
  std::size_t file_count = 0;
  std::size_t file_entries = 0;
  /// Sum of RFile::total_block_bytes over this tablet's files: what a
  /// block cache would pay to hold every data block resident. With
  /// prefix encoding on, file_entries / file_block_bytes is the
  /// cells-per-cached-byte density the encoding buys.
  std::size_t file_block_bytes = 0;
  /// Per-level file counts and byte sizes (index = level); the
  /// space-amplification shape of the tablet.
  std::vector<std::size_t> level_files;
  std::vector<std::uint64_t> level_bytes;
  std::size_t minor_compactions = 0;
  std::size_t major_compactions = 0;
  /// Pool accounting: maintenance tasks queued on and completed by the
  /// scheduler's pool (0 unless a scheduler is attached), and tasks in
  /// flight on any thread.
  std::size_t compactions_queued = 0;
  std::size_t compactions_completed = 0;
  std::size_t compactions_in_flight = 0;
  /// Block-cache counters, from the table-level cache this tablet's
  /// scans read through (0 when caching is off).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// Blocks/bytes resident right now — drops when a compaction retires
  /// files and their blocks are proactively erased.
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
};

class Tablet : public std::enable_shared_from_this<Tablet> {
 public:
  /// `config` and `cache` (null = no block cache) are the table's,
  /// shared with it and with every snapshot and scan stack opened
  /// here. Attaching a `scheduler` requires the
  /// tablet itself to be owned by a shared_ptr (background tasks keep
  /// it alive via shared_from_this). The scheduler pointer is
  /// NON-OWNING — the attacher (Instance, or a test) keeps it alive
  /// while attached. Tablets deliberately hold no strong reference:
  /// a finishing background task may drop the last tablet reference
  /// on a scheduler pool thread, and a tablet-owned scheduler ref
  /// would then run the scheduler's destructor on its own worker
  /// (self-join deadlock).
  Tablet(TabletExtent extent, std::shared_ptr<const TableConfig> config,
         std::shared_ptr<BlockCache> cache = nullptr,
         CompactionScheduler* scheduler = nullptr)
      : extent_(std::move(extent)),
        config_(std::move(config)),
        cache_(std::move(cache)),
        scheduler_(scheduler) {}

  /// Releases the tablet's contribution to the global frozen-memtable
  /// gauge (a tablet dropped with unflushed frozen memtables must not
  /// leave them counted forever).
  ~Tablet();

  const TabletExtent& extent() const noexcept { return extent_; }

  /// Attaches (or detaches, with nullptr) the background scheduler
  /// (non-owning; see the constructor note). The tablet must be
  /// shared_ptr-owned when attaching.
  void set_compaction_scheduler(CompactionScheduler* s);

  /// Applies a mutation whose row must be inside this extent. When the
  /// memtable reaches the configured threshold, freezes it and queues
  /// the minor task, plus the major task when the level picker has
  /// work; without a scheduler (or when its pool refuses them) runs
  /// them before returning. Any failure of those threshold-triggered
  /// tasks is contained (warned, data kept in memory, retried by a
  /// later trigger); the mutation itself has already landed and apply()
  /// still succeeds. May block on back-pressure.
  void apply(const Mutation& mutation, Timestamp assigned_ts);

  /// Inserts one pre-formed cell (compaction/move path).
  void insert_cell(Cell cell);

  /// Freezes the memtable and writes every frozen memtable, oldest
  /// first, into immutable L0 files through the minc-scope iterator
  /// stack, synchronously: for a single-threaded caller nothing is
  /// buffered in memory on return. Waits for an in-flight minor task
  /// (on the pool or another writer) rather than duplicating it. Throws
  /// when a build or install fails, the memtable still frozen. No-op
  /// when nothing is buffered; a flush whose minc stack drops every
  /// cell installs no file.
  void flush();

  /// Merges ALL files (flushing the memtable first, after any in-flight
  /// task) through the majc-scope iterator stack into a single file,
  /// synchronously and under the tablet lock.
  /// `once` joins that stack for this compaction only, merged into the
  /// config's iterators by priority (Accumulo's one-time compaction
  /// iterators). Delete markers are dropped (full-major compaction
  /// semantics). The output lands at the deepest level (L1 minimum). An
  /// empty merge result installs no file.
  void major_compact(const std::vector<IteratorSetting>& once = {});

  /// Builds a scan stack over the current cut: read_stack (see
  /// snapshot.hpp) — merge -> deletes -> versioning -> scan-scope
  /// attached iterators. Sorted levels are seek-pruned, so a point read
  /// consults at most one file per level. The caller may wrap further
  /// scan-time iterators around the returned stack.
  IterPtr scan_stack() const;

  /// The current cut's raw merged data WITHOUT delete resolution,
  /// versioning, or scan iterators (diagnostics and split).
  IterPtr raw_stack() const;

  /// Opens an MVCC snapshot: pins the current cut (the active memtable
  /// and its mutation count, the frozen memtables, the file set) and
  /// shares the table config and block cache, in a handle that reads
  /// nothing of the tablet afterwards. O(1) in the memtable's
  /// size. See snapshot.hpp.
  std::shared_ptr<TabletSnapshot> open_snapshot() const;

  /// Snapshot of the current leveled file set (cheap, lock-free reads
  /// afterwards). Checkpointing walks this to persist file metadata.
  std::shared_ptr<const Version> version() const;

  /// Cells buffered in memory only (active + frozen memtables), merged
  /// newest-first — the unflushed remainder a checkpoint must persist
  /// as raw cells alongside the file set.
  std::vector<Cell> unflushed_cells() const;

  /// Installs recovered files as the tablet's file set (recovery
  /// path; the tablet must hold no files yet). Every FileMeta must
  /// carry a live RFile whose file_id matches. Passes through the
  /// `manifest.install` fault site — callers wrap in with_retries.
  void restore_files(std::vector<FileMeta> files);

  TabletStats stats() const;

  /// Total logical entries (memtable + frozen + files, before
  /// versioning).
  std::size_t entry_estimate() const;

  /// Up to `n` row keys sampled evenly from this tablet's data (sorted,
  /// deduplicated). Candidates for partition boundaries when a table has
  /// fewer tablets than a parallel scan wants workers.
  std::vector<std::string> sample_split_rows(std::size_t n) const;

 private:
  /// A memtable that takes no more writes, awaiting flush, ordered by
  /// `seq`.
  struct FrozenMemtable {
    std::uint64_t seq = 0;
    std::shared_ptr<const Memtable> memtable;
  };

  /// The two maintenance tasks, as bits of a task set.
  enum Task : unsigned { kMinorTask = 1u, kMajorTask = 2u };

  /// Pins the current cut's sources (active memtable and its count,
  /// frozen list, current Version) in O(1) — the open_snapshot payload
  /// and the basis of every scan stack.
  PinnedSources pinned_sources_locked() const;
  /// After a write: once the active memtable reaches the flush
  /// threshold, freezes it and queues the tasks, running the ones no
  /// pool took before returning.
  void maybe_compact_locked(std::unique_lock<std::mutex>& lock);
  /// Blocks the writer while files or frozen memtables exceed their
  /// ceilings, until the tasks bring them down. With nothing in flight
  /// the writer runs the queued tasks itself. If a task fails during
  /// the wait, on this thread or on the pool's, the write goes ahead
  /// over the ceiling rather than retry it (tablet.overrun.total counts
  /// every write that goes ahead over a ceiling).
  void wait_for_capacity_locked(std::unique_lock<std::mutex>& lock);
  /// Moves the active memtable into frozen_ and starts a fresh one
  /// (no-op when empty). O(1).
  void freeze_active_locked();
  /// Claims each task of `wanted` that is due and not in flight (the
  /// minor task while memtables are frozen, the major task while the
  /// picker has work) and hands it to the scheduler's pool. Returns the
  /// claimed tasks no pool took: the caller must run them.
  unsigned queue_tasks_locked(unsigned wanted);
  /// Runs the claimed tasks `owned` on this thread, minor first, and
  /// every task they queue that no pool takes. Each failure is contained
  /// (warned, counted in task_failures_, left for the next trigger);
  /// false when a task failed.
  bool run_tasks_locked(std::unique_lock<std::mutex>& lock, unsigned owned);
  /// Writes the oldest frozen memtable to an L0 file, built without the
  /// lock and installed under it. Throws, the memtable still frozen,
  /// when the build or the install fails. The caller owns the minor
  /// task.
  void flush_oldest_locked(std::unique_lock<std::mutex>& lock);
  /// Runs one picked compaction, merged without the lock and installed
  /// under it. False when nothing is due or a racing major_compact()
  /// already merged an input. Throws, the inputs kept, when the merge
  /// or the install fails. The caller owns the major task.
  bool compact_picked_locked(std::unique_lock<std::mutex>& lock);
  /// flush(): takes the minor task once nobody runs it, freezes the
  /// active memtable and drains the frozen list. Throws on failure.
  void flush_locked(std::unique_lock<std::mutex>& lock);
  /// Runs the minc-scope stack over a frozen memtable into an RFile
  /// (null when the stack drops every cell); fires the flush fault
  /// site.
  std::shared_ptr<RFile> build_minor_file(const Memtable& memtable) const;
  /// Removes frozen entry `seq` and installs `file` (nullptr = the
  /// minc stack dropped everything) as an L0 file.
  void install_minor_locked(std::uint64_t seq,
                            const std::shared_ptr<RFile>& file);
  /// Installs `edit` through the VersionSet (fires manifest.install;
  /// may throw TransientError) and evicts retired files' blocks from
  /// the cache. False = a removed input vanished, edit rejected.
  bool apply_edit_locked(const VersionEdit& edit);
  /// Asks the picker for the next due compaction on the current
  /// version (level fullness and back-pressure).
  std::optional<CompactionPick> pick_locked() const;

  TabletExtent extent_;
  std::shared_ptr<const TableConfig> config_;  ///< immutable: no lock
  std::shared_ptr<BlockCache> cache_;
  CompactionScheduler* scheduler_ = nullptr;  ///< non-owning
  mutable std::mutex mutex_;
  /// Signalled on every install and task end: back-pressure waits,
  /// flush()'s and major_compact()'s in-flight waits.
  mutable std::condition_variable state_cv_;
  /// The active memtable. Replaced, never cleared: pins may hold it.
  std::shared_ptr<Memtable> memtable_ = std::make_shared<Memtable>();
  std::vector<FrozenMemtable> frozen_;  ///< sorted by seq, newest first
  VersionSet versions_;                 ///< the leveled file set
  std::uint64_t next_data_seq_ = 1;
  /// Set while a thread (a pool worker, a writer, or flush()) owns the
  /// task: from its claim until it ends.
  bool minor_inflight_ = false;
  bool major_inflight_ = false;
  std::size_t minor_compactions_ = 0;
  std::size_t major_compactions_ = 0;
  std::uint64_t bg_queued_ = 0;
  std::uint64_t bg_completed_ = 0;
  /// Maintenance tasks that failed, whichever thread ran them: a
  /// back-pressured writer stops waiting once it sees this move.
  std::uint64_t task_failures_ = 0;
};

}  // namespace graphulo::nosql
