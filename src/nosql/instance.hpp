#pragma once
// The database instance: table catalog, split management, mutation
// routing, and the logical timestamp authority — the in-process stand-in
// for an Accumulo cluster (see DESIGN.md for what this substitution
// preserves).

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nosql/admission.hpp"
#include "nosql/block_cache.hpp"
#include "nosql/compaction_scheduler.hpp"
#include "nosql/mutation.hpp"
#include "nosql/snapshot.hpp"
#include "nosql/table_config.hpp"
#include "nosql/tablet.hpp"
#include "nosql/tablet_server.hpp"
#include "nosql/wal.hpp"
#include "util/fault.hpp"

namespace graphulo::nosql {

/// One table: config + tablets sorted by extent, each assigned to a
/// tablet server round-robin. The config is immutable from
/// create_table on. When it asks for RFile block caching
/// (rfile.cache_bytes > 0) the table has one BlockCache that every
/// tablet's file iterators read through. The table shares its config
/// and cache with its tablets, their snapshots and every scan stack,
/// and its admission controller with its clients, so each of those
/// stays usable after delete_table. It also keeps the high-water mark
/// of every writer stream that wrote it (see the dedup overload of
/// Instance::apply), in memory, so dropping the table forgets them.
class Table {
 public:
  Table(std::string name, std::shared_ptr<const TableConfig> config)
      : name_(std::move(name)),
        config_(std::move(config)),
        admission_(std::make_shared<AdmissionController>(
            std::shared_ptr<const AdmissionConfig>(config_,
                                                   &config_->admission))) {
    if (config_->rfile.cache_bytes > 0) {
      cache_ = std::make_shared<BlockCache>(config_->rfile.cache_bytes);
    }
  }

  const std::string& name() const noexcept { return name_; }
  const std::shared_ptr<const TableConfig>& config() const noexcept {
    return config_;
  }

  /// Tablets in extent order.
  const std::vector<std::shared_ptr<Tablet>>& tablets() const noexcept {
    return tablets_;
  }

  /// The table-wide RFile block cache; null when caching is off.
  const std::shared_ptr<BlockCache>& cache() const noexcept { return cache_; }

  /// The table's admission gate (always present; a no-op with default
  /// AdmissionConfig knobs).
  const std::shared_ptr<AdmissionController>& admission() const noexcept {
    return admission_;
  }

 private:
  friend class Instance;

  /// One writer id's stream into this table: the next sequence number
  /// not yet applied. `mutex` serializes check, apply and advance.
  struct WriteStream {
    std::mutex mutex;
    std::uint64_t next_seq = 0;
  };

  std::string name_;
  std::shared_ptr<const TableConfig> config_;
  std::shared_ptr<AdmissionController> admission_;
  std::shared_ptr<BlockCache> cache_;
  std::vector<std::shared_ptr<Tablet>> tablets_;
  std::vector<int> tablet_server_of_;  ///< parallel to tablets_
  std::mutex streams_mutex_;  ///< guards the map, not the streams
  /// writer id -> its stream, created at seq 0 on first use.
  std::unordered_map<std::string, std::shared_ptr<WriteStream>> streams_;
};

class Instance {
 public:
  /// Creates an instance with `num_tablet_servers` logical servers.
  explicit Instance(int num_tablet_servers = 1);

  // -- catalog ------------------------------------------------------------

  /// Creates a table with one tablet covering all rows. `config` is
  /// frozen here: attach iterators and set knobs before the call.
  /// Throws if the name exists.
  void create_table(const std::string& name, TableConfig config = {});

  /// Drops a table once its queued background work has run. Tablet
  /// handles, snapshots, scan stacks and writers that outlive the drop
  /// share the config, block cache and admission controller they read.
  /// Throws if missing.
  void delete_table(const std::string& name);

  bool table_exists(const std::string& name) const;
  std::vector<std::string> table_names() const;

  /// Clones `source` into a new table `target`: the same (shared,
  /// immutable) config, same splits, same data (versions and delete
  /// markers preserved). Like Accumulo's clone, the copy's data is
  /// independent afterwards. Journaled to the WAL (kCloneTable) when one
  /// is attached, so clones survive recovery; the clone's iterator
  /// settings, like every table's, are code-side and must be reattached
  /// after recovery.
  void clone_table(const std::string& source, const std::string& target);

  /// The table's immutable config, shared. Throws if the table is
  /// missing.
  std::shared_ptr<const TableConfig> table_config(
      const std::string& name) const;

  // -- splits -------------------------------------------------------------

  /// Adds split points: each named row becomes a tablet boundary. Data
  /// already written is repartitioned. New tablets are balanced across
  /// tablet servers round-robin. Journaled to the WAL (kAddSplits) when
  /// one is attached, so recovered tables keep their tablet layout.
  void add_splits(const std::string& name, std::vector<std::string> split_rows);

  /// Current split points of a table.
  std::vector<std::string> list_splits(const std::string& name) const;

  /// Row keys that cut `name` into up to `target_partitions` contiguous
  /// row ranges for parallel scans: the tablet split points, refined with
  /// row keys sampled from tablet data when the table has fewer tablets
  /// than partitions wanted (e.g. a single-tablet table). Returns at most
  /// `target_partitions - 1` sorted distinct non-empty rows; fewer when
  /// the data does not contain enough distinct rows. Thread-safe, like
  /// all scan entry points.
  std::vector<std::string> partition_rows(const std::string& name,
                                          std::size_t target_partitions) const;

  // -- writes -------------------------------------------------------------

  /// Applies a mutation, routed to the owning tablet; assigns the next
  /// logical timestamp to updates without one. Logged to the WAL when
  /// one is attached. Transient failures (injected or real) of the WAL
  /// append are retried with bounded exponential backoff; the timestamp
  /// is assigned once, before the first attempt, so retries do not
  /// perturb the logical clock sequence.
  void apply(const std::string& name, const Mutation& mutation);

  /// Applies `mutation` as sequence number `seq` of writer `writer_id`'s
  /// stream into table `name`, once: a seq below the stream's
  /// high-water mark is skipped and returns false; otherwise the
  /// mutation is applied as above, the mark moves to seq + 1, and the
  /// call returns true. Check, apply and advance run under the stream's
  /// own lock, so concurrent resends of one stream apply each seq once
  /// and other streams never wait on it. Local BatchWriters with an id
  /// and the tablet service's kWriteBatch both land here.
  bool apply(const std::string& name, const Mutation& mutation,
             const std::string& writer_id, std::uint64_t seq);

  /// Applies a mutation with a pre-assigned timestamp and NO WAL write —
  /// the replay path of crash recovery. Advances the logical clock past
  /// `assigned_ts`.
  void apply_replayed(const std::string& name, const Mutation& mutation,
                      Timestamp assigned_ts);

  /// Routes pre-formed cells straight into their tablets' memtables
  /// (exact keys preserved, no timestamp assignment, no WAL write) —
  /// the checkpoint-restore path for UNFLUSHED data.
  void restore_cells(const std::string& name, std::vector<Cell> cells);

  /// Installs recovered immutable files into the tablet whose extent
  /// starts at `extent_start` ("" = the first tablet) — the
  /// checkpoint-restore path for the leveled file set a checkpoint
  /// records. Every FileMeta must carry a live RFile. Passes
  /// through the `manifest.install` fault site (callers retry).
  void restore_files(const std::string& name, const std::string& extent_start,
                     std::vector<FileMeta> files);

  // -- durability -----------------------------------------------------------

  /// Attaches a write-ahead log: from now on catalog events and
  /// mutations are appended to it before being applied.
  void attach_wal(std::shared_ptr<WriteAheadLog> wal) { wal_ = std::move(wal); }

  /// Flushes the attached WAL (no-op without one). Transient sync
  /// failures are retried with backoff.
  void sync_wal() {
    if (wal_) {
      util::with_retries("Instance::sync_wal", retry_policy_,
                         [this] { wal_->sync(); });
    }
  }

  /// The attached WAL (nullptr when none).
  const std::shared_ptr<WriteAheadLog>& wal() const noexcept { return wal_; }

  // -- background compactions ----------------------------------------------

  /// Attaches a background compaction scheduler: from now on (and for
  /// every existing tablet) threshold flushes and picker-selected
  /// leveled compactions run on the scheduler's thread pool instead of
  /// on the writer that triggered them.
  /// Pass nullptr to detach: writers then run those tasks themselves.
  void attach_compaction_scheduler(std::shared_ptr<CompactionScheduler> s);

  /// The attached scheduler (nullptr when writers run the compactions).
  const std::shared_ptr<CompactionScheduler>& compaction_scheduler()
      const noexcept {
    return scheduler_;
  }

  /// Blocks until every queued/in-flight background compaction has
  /// finished (no-op without a scheduler). Call before checkpointing or
  /// any operation wanting a settled file set.
  void quiesce_compactions() {
    if (scheduler_) scheduler_->drain();
  }

  /// Retry policy for transient failures in apply/sync/flush/compact.
  void set_retry_policy(util::RetryPolicy policy) noexcept {
    retry_policy_ = policy;
  }
  const util::RetryPolicy& retry_policy() const noexcept {
    return retry_policy_;
  }

  /// Flushes every tablet's memtable (minor compaction). Transient
  /// per-tablet failures are retried with backoff.
  void flush(const std::string& name);

  /// Major-compacts every tablet (each flushes first). The iterators in
  /// `once` run in these compactions' majc-scope stacks only, merged
  /// into the table's by priority: Accumulo's one-time compaction
  /// iterators, as table_apply and table_filter use them. Transient
  /// per-tablet failures are retried with backoff.
  void compact(const std::string& name,
               const std::vector<IteratorSetting>& once = {});

  // -- reads --------------------------------------------------------------

  /// The table's tablets whose extents may intersect `range`, in extent
  /// order, paired with their server ids. Used by Scanner/BatchScanner.
  std::vector<std::pair<std::shared_ptr<Tablet>, int>> tablets_for_range(
      const std::string& name, const Range& range) const;

  /// Opens an MVCC snapshot of a whole table: one pinned cut per
  /// tablet, captured in extent order. Scans through the handle (via
  /// Scanner::set_snapshot, BatchScanner::set_snapshot, or
  /// open_table_scan) see exactly this cut no matter how long they run
  /// or what writers/compactions do meanwhile. Throws if the table is
  /// missing.
  std::shared_ptr<const Snapshot> open_snapshot(const std::string& name) const;

  /// The table's admission gate, shared so a client may keep it across
  /// calls; nullptr when the table is missing.
  std::shared_ptr<AdmissionController> admission(
      const std::string& name) const;

  // -- introspection -------------------------------------------------------

  /// Refreshes the storage-amplification gauges from current tablet
  /// state: per-level file-count/byte gauges (labelled level="N") and
  /// the live-vs-total-bytes ratio (percent of file bytes residing in
  /// each tablet's deepest level — 100 means no space amplification).
  /// Called by metrics_report(); exporters on a pull cadence can call
  /// it directly before snapshotting.
  void update_storage_gauges() const;

  /// Human-readable report over the global metrics registry — the
  /// monitor-page view: per-server traffic, then every registry series
  /// (counters, gauges, span histograms with p50/p95/p99). Pure
  /// formatting; the data is the same snapshot the exporters serialize.
  /// Refreshes the storage gauges first.
  std::string metrics_report() const;

  int tablet_server_count() const noexcept {
    return static_cast<int>(servers_.size());
  }
  TabletServer& server(int id) { return *servers_[static_cast<std::size_t>(id)]; }

  /// Total logical entries stored in a table (pre-versioning estimate).
  std::size_t entry_estimate(const std::string& name) const;

  /// Next logical timestamp (also advances the clock).
  Timestamp next_timestamp() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// The most recently issued logical timestamp.
  Timestamp last_timestamp() const noexcept {
    return clock_.load(std::memory_order_relaxed);
  }

  /// Advances the clock to at least `ts` (replay/restore paths), so
  /// post-recovery writes sort newer than everything recovered.
  void advance_clock(Timestamp ts) {
    Timestamp current = clock_.load(std::memory_order_relaxed);
    while (current < ts && !clock_.compare_exchange_weak(current, ts)) {
    }
  }

 private:
  Table& get_table(const std::string& name);
  const Table& get_table(const std::string& name) const;
  std::shared_ptr<Tablet> route_locked(Table& table, const std::string& row,
                                       int* server_id) const;

  mutable std::shared_mutex catalog_mutex_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<std::unique_ptr<TabletServer>> servers_;
  std::atomic<Timestamp> clock_{0};
  int next_server_ = 0;  ///< round-robin assignment cursor
  std::shared_ptr<WriteAheadLog> wal_;
  std::shared_ptr<CompactionScheduler> scheduler_;
  util::RetryPolicy retry_policy_;
};

/// Supplies the TableConfig a table should be recreated with during
/// recovery. Iterator settings (combiners, filters) are code, not log
/// records, so recovery cannot reconstruct them from the WAL alone — a
/// provider lets the caller reattach them at creation time, BEFORE
/// replayed mutations flow through flush/compaction stacks. The default
/// provider returns TableConfig{}.
using TableConfigProvider = std::function<TableConfig(const std::string&)>;

/// Crash recovery: replays the WAL at `path` into `db` (normally a
/// fresh instance), honoring every journaled record kind (create,
/// delete, clone, splits, mutations). Tables are recreated with
/// `config_for` (default configs when omitted) — iterator settings
/// remain code-side. Only records with seq >= `min_seq` are applied
/// (checkpoint recovery passes the checkpoint's covered sequence).
/// Returns the number of records applied. The WAL is NOT attached to
/// `db`; attach it explicitly to continue logging.
std::size_t recover_from_wal(Instance& db, const std::string& path,
                             const TableConfigProvider& config_for = {},
                             std::uint64_t min_seq = 0);

}  // namespace graphulo::nosql
