#include "nosql/tablet.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "nosql/filter_iterators.hpp"
#include "nosql/merge_iterator.hpp"
#include "nosql/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace graphulo::nosql {

namespace {

obs::Counter& flush_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.flush.total", "Minor compactions (memtable flushes) completed");
  return c;
}
obs::Counter& major_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.compaction.total", "Major/leveled compactions completed");
  return c;
}
obs::Counter& flush_cells_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.flush.cells.total",
      "Cells written to L0 by minor compactions (flushes)");
  return c;
}
obs::Counter& compact_cells_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.compaction.cells.total",
      "Cells rewritten by compactions (write-amplification numerator)");
  return c;
}
obs::Gauge& frozen_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "tablet.frozen.memtables",
      "Frozen (immutable) memtables awaiting background flush");
  return g;
}
obs::Counter& relief_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.relief.total",
      "Back-pressure waits in which the writer ran the queued flush or "
      "compaction itself (no pool took it)");
  return c;
}
obs::Counter& relief_failure_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.relief.failures.total",
      "Back-pressure reliefs whose flush or compaction failed (the write "
      "went ahead over the ceiling)");
  return c;
}

obs::Counter& overrun_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.overrun.total",
      "Back-pressured writes that went ahead over the file or frozen-"
      "memtable ceiling: a flush or compaction failed during the wait, on "
      "any thread, or none could bring the tablet under it");
  return c;
}

/// Ceiling on frozen memtables per tablet before writers block: enough
/// to ride out a slow flush, small enough to bound memory.
constexpr std::size_t kMaxFrozenMemtables = 4;

/// Runs `stack` to completion over everything and collects the cells.
std::vector<Cell> drain_all(SortedKVIterator& stack) {
  return drain(stack, Range::all());
}

std::uint64_t max_input_seq(const std::vector<FileMeta>& inputs) {
  std::uint64_t seq = 0;
  for (const FileMeta& m : inputs) seq = std::max(seq, m.seq);
  return seq;
}

/// Builds the compaction stack over `inputs` (already newest-first) and
/// drains it. `drop` = bottommost full semantics: deletes resolve and
/// vanish. `config`'s versioning and the majc-scope iterators of
/// `settings` run regardless, exactly as partial majors always have.
std::vector<Cell> merge_compaction_inputs(
    const std::vector<FileMeta>& inputs, bool drop, const TableConfig& config,
    const std::vector<IteratorSetting>& settings) {
  std::vector<IterPtr> children;
  children.reserve(inputs.size());
  for (const FileMeta& m : inputs) children.push_back(m.file->iterator());
  IterPtr stack = std::make_unique<MergeIterator>(std::move(children));
  if (drop) stack = std::make_unique<DeletingIterator>(std::move(stack));
  if (config.versioning) {
    stack = std::make_unique<VersioningIterator>(std::move(stack),
                                                 config.max_versions);
  }
  stack = apply_scope_iterators(std::move(stack), settings, kMajcScope);
  return drain_all(*stack);
}

/// Releases a held lock for its scope and retakes it on the way out,
/// also when the scope throws.
class Unlocked {
 public:
  explicit Unlocked(std::unique_lock<std::mutex>& lock) : lock_(lock) {
    lock_.unlock();
  }
  ~Unlocked() { lock_.lock(); }
  Unlocked(const Unlocked&) = delete;
  Unlocked& operator=(const Unlocked&) = delete;

 private:
  std::unique_lock<std::mutex>& lock_;
};

}  // namespace

Tablet::~Tablet() {
  if (!frozen_.empty()) {
    frozen_gauge().add(-static_cast<std::int64_t>(frozen_.size()));
  }
}

void Tablet::set_compaction_scheduler(CompactionScheduler* s) {
  std::lock_guard lock(mutex_);
  scheduler_ = s;
}

void Tablet::apply(const Mutation& mutation, Timestamp assigned_ts) {
  std::unique_lock lock(mutex_);
  if (!extent_.contains_row(mutation.row())) {
    throw std::logic_error("Tablet::apply: row outside extent");
  }
  wait_for_capacity_locked(lock);
  memtable_->apply(mutation, assigned_ts);
  maybe_compact_locked(lock);
}

void Tablet::insert_cell(Cell cell) {
  std::unique_lock lock(mutex_);
  wait_for_capacity_locked(lock);
  memtable_->insert(cell.key, cell.value);
  maybe_compact_locked(lock);
}

void Tablet::maybe_compact_locked(std::unique_lock<std::mutex>& lock) {
  // Shadowed identical-key entries count: rewriting one key must not
  // grow a memtable without bound.
  if (memtable_->node_count() < config_->flush_entries) return;
  freeze_active_locked();
  run_tasks_locked(lock, queue_tasks_locked(kMinorTask | kMajorTask));
}

void Tablet::wait_for_capacity_locked(std::unique_lock<std::mutex>& lock) {
  // A failed task is not retried here, on this thread or by queueing it
  // on the pool again, which would spin on a persistent fault: the
  // write goes ahead and the next trigger retries the task.
  const std::uint64_t failures_before = task_failures_;
  while (versions_.current()->file_count() >= config_->max_tablet_files ||
         frozen_.size() >= kMaxFrozenMemtables) {
    if (task_failures_ == failures_before) {
      if (const unsigned owned = queue_tasks_locked(kMinorTask | kMajorTask)) {
        // No pool took the work: this writer relieves the pressure itself.
        relief_total().inc();
        if (!run_tasks_locked(lock, owned)) relief_failure_total().inc();
        continue;
      }
      if (minor_inflight_ || major_inflight_) {
        state_cv_.wait_for(lock, std::chrono::microseconds(200));
        continue;
      }
    }
    // A task failed during the wait, or nothing can bring the tablet
    // under the ceiling: the write goes ahead over it.
    overrun_total().inc();
    return;
  }
}

void Tablet::freeze_active_locked() {
  if (memtable_->empty()) return;  // never queue a no-op flush
  frozen_.insert(frozen_.begin(),
                 FrozenMemtable{next_data_seq_++, std::move(memtable_)});
  frozen_gauge().add(1);
  memtable_ = std::make_shared<Memtable>();
}

unsigned Tablet::queue_tasks_locked(unsigned wanted) {
  unsigned owned = 0;
  for (const Task task : {kMinorTask, kMajorTask}) {
    if (!(wanted & task)) continue;
    bool& inflight = task == kMinorTask ? minor_inflight_ : major_inflight_;
    if (inflight) continue;  // its owner picks up whatever is due
    if (task == kMinorTask ? frozen_.empty() : !pick_locked()) continue;
    inflight = true;
    if (scheduler_ && scheduler_->enqueue([self = shared_from_this(), task] {
          std::unique_lock task_lock(self->mutex_);
          self->run_tasks_locked(task_lock, task);
          ++self->bg_completed_;
        })) {
      ++bg_queued_;
    } else {
      owned |= task;
    }
  }
  return owned;
}

bool Tablet::run_tasks_locked(std::unique_lock<std::mutex>& lock,
                              unsigned owned) {
  bool ok = true;
  while (owned != 0) {
    if (owned & kMinorTask) {
      owned &= ~kMinorTask;
      try {
        while (!frozen_.empty()) {
          flush_oldest_locked(lock);
          owned |= queue_tasks_locked(kMajorTask);
        }
      } catch (const std::exception& e) {
        // Contained: the frozen memtable stays queued in memory (and in
        // the WAL) for a later trigger or an explicit flush(). Retrying
        // the write instead would apply it twice.
        GRAPHULO_WARN << "Tablet[" << extent_.start_row << ","
                      << extent_.end_row
                      << "): flush failed, keeping memtable frozen: "
                      << e.what();
        ok = false;
        ++task_failures_;
      }
      minor_inflight_ = false;
    } else {
      owned &= ~kMajorTask;
      bool installed = false;
      try {
        installed = compact_picked_locked(lock);
      } catch (const std::exception& e) {
        GRAPHULO_WARN << "Tablet[" << extent_.start_row << ","
                      << extent_.end_row
                      << "): compaction failed, keeping inputs: " << e.what();
        ok = false;
        ++task_failures_;
      }
      major_inflight_ = false;
      // Cascade: this install may have pushed the next level over budget.
      if (installed) owned |= queue_tasks_locked(kMajorTask);
    }
    state_cv_.notify_all();
  }
  return ok;
}

std::shared_ptr<RFile> Tablet::build_minor_file(
    const Memtable& memtable) const {
  // Site fires before any state change: a failed flush leaves memtable
  // and file set exactly as they were.
  util::fault::point(util::fault::sites::kMemtableFlush);
  TRACE_SPAN("tablet.flush");
  IterPtr stack = memtable.pin().iterator();
  stack = apply_scope_iterators(std::move(stack), config_->iterators,
                                kMincScope);
  auto cells = drain_all(*stack);
  if (cells.empty()) return nullptr;
  return RFile::from_sorted(std::move(cells), config_->rfile);
}

void Tablet::flush_oldest_locked(std::unique_lock<std::mutex>& lock) {
  // Oldest first: installs stay in data-seq order.
  const FrozenMemtable target = frozen_.back();
  std::shared_ptr<RFile> file;
  {
    Unlocked unlocked(lock);
    file = build_minor_file(*target.memtable);
  }
  install_minor_locked(target.seq, file);
}

bool Tablet::compact_picked_locked(std::unique_lock<std::mutex>& lock) {
  const auto pick = pick_locked();
  if (!pick) return false;
  // Delete markers drop only when the output is bottommost for its key
  // range AND nothing newer is buffered (a frozen memtable may hold a
  // write the markers must still suppress at scan time).
  const bool drop = pick->bottommost && frozen_.empty();
  std::shared_ptr<RFile> output;
  std::size_t out_cells = 0;
  {
    Unlocked unlocked(lock);
    TRACE_SPAN("tablet.compact");
    // Before any state change, like the flush site.
    util::fault::point(util::fault::sites::kTabletCompact);
    auto cells = merge_compaction_inputs(pick->inputs, drop, *config_,
                                         config_->iterators);
    out_cells = cells.size();
    if (!cells.empty()) {
      output = RFile::from_sorted(std::move(cells), config_->rfile);
    }
  }
  VersionEdit edit;
  for (const FileMeta& m : pick->inputs) edit.removed.push_back(m.file_id);
  if (output) {
    edit.added.push_back(FileMeta::describe(
        output, static_cast<int>(pick->output_level),
        max_input_seq(pick->inputs)));
  }
  // apply_edit rejects the edit when an input vanished (an explicit
  // major_compact() raced us and already merged it): discard ours.
  if (!apply_edit_locked(edit)) {
    GRAPHULO_DEBUG << "Tablet: discarding compaction result (inputs "
                   << "changed during merge)";
    return false;
  }
  ++major_compactions_;
  major_total().inc();
  compact_cells_total().inc(out_cells);
  return true;
}

std::optional<CompactionPick> Tablet::pick_locked() const {
  const auto v = versions_.current();
  const bool pressure = v->file_count() >= config_->max_tablet_files;
  return pick_compaction(*v, config_->compaction, pressure);
}

bool Tablet::apply_edit_locked(const VersionEdit& edit) {
  // The install (and its fault site) runs before anything observable
  // changes; cache eviction of retired files happens only afterwards.
  if (!versions_.apply(edit)) return false;
  if (cache_) {
    for (const std::uint64_t id : edit.removed) cache_->erase_file(id);
  }
  return true;
}

void Tablet::install_minor_locked(std::uint64_t seq,
                                  const std::shared_ptr<RFile>& file) {
  // A minc stack may legitimately drop every cell (filters): count the
  // flush but never install a zero-cell file. The version install runs
  // FIRST — it can fault, and must leave the frozen entry queued.
  if (file && !file->empty()) {
    VersionEdit edit;
    edit.added.push_back(FileMeta::describe(file, /*level=*/0, seq));
    apply_edit_locked(edit);
    flush_cells_total().inc(file->entry_count());
  }
  const auto erased = std::erase_if(
      frozen_, [&](const FrozenMemtable& f) { return f.seq == seq; });
  frozen_gauge().add(-static_cast<std::int64_t>(erased));
  ++minor_compactions_;
  flush_total().inc();
  state_cv_.notify_all();
}

void Tablet::flush() {
  std::unique_lock lock(mutex_);
  flush_locked(lock);
}

void Tablet::flush_locked(std::unique_lock<std::mutex>& lock) {
  // Take the minor task over from whoever runs it, then drain
  // everything: frozen memtables a failed task left behind first, the
  // active memtable last.
  state_cv_.wait(lock, [&] { return !minor_inflight_; });
  freeze_active_locked();
  minor_inflight_ = true;
  std::exception_ptr failure;
  try {
    while (!frozen_.empty()) flush_oldest_locked(lock);
  } catch (...) {
    failure = std::current_exception();
  }
  minor_inflight_ = false;
  state_cv_.notify_all();
  if (failure) std::rethrow_exception(failure);
}

void Tablet::major_compact(const std::vector<IteratorSetting>& once) {
  std::unique_lock lock(mutex_);
  state_cv_.wait(lock, [&] { return !minor_inflight_ && !major_inflight_; });
  flush_locked(lock);
  // A single file is still rewritten: one-shot majc-scope iterators
  // (table_apply / table_filter) and delete resolution depend on every
  // cell passing through the compaction stack.
  const auto v = versions_.current();
  if (v->empty()) return;
  TRACE_SPAN("tablet.compact");
  // Before any state change, like the flush site above.
  util::fault::point(util::fault::sites::kTabletCompact);
  const auto inputs = v->all_files();
  auto settings = config_->iterators;
  for (const IteratorSetting& s : once) insert_by_priority(settings, s);
  // Full major compaction: every file participates, so deletes resolve
  // and drop, versions collapse, then majc-scope iterators run.
  auto cells = merge_compaction_inputs(inputs, /*drop=*/true, *config_,
                                       settings);
  const std::size_t out_cells = cells.size();
  // The single output is bottommost by construction; park it at the
  // deepest occupied level (L1 minimum) so L0 stays clear for fresh
  // flushes.
  std::size_t out_level = 0;
  if (config_->compaction.max_levels > 1) {
    out_level = std::max<std::size_t>(
        1, v->levels.empty() ? 1 : v->levels.size() - 1);
    out_level = std::min(out_level, config_->compaction.max_levels - 1);
  }
  VersionEdit edit;
  for (const FileMeta& m : inputs) edit.removed.push_back(m.file_id);
  if (!cells.empty()) {
    edit.added.push_back(FileMeta::describe(
        RFile::from_sorted(std::move(cells), config_->rfile),
        static_cast<int>(out_level), max_input_seq(inputs)));
  }
  apply_edit_locked(edit);
  ++major_compactions_;
  major_total().inc();
  compact_cells_total().inc(out_cells);
  state_cv_.notify_all();
}

PinnedSources Tablet::pinned_sources_locked() const {
  PinnedSources s;
  if (!memtable_->empty()) s.active = memtable_->pin();
  s.frozen.reserve(frozen_.size());
  for (const auto& f : frozen_) {
    s.frozen.emplace_back(f.seq, f.memtable->pin());
  }
  s.version = versions_.current();
  return s;
}

std::shared_ptr<TabletSnapshot> Tablet::open_snapshot() const {
  std::lock_guard lock(mutex_);
  return std::make_shared<TabletSnapshot>(extent_, pinned_sources_locked(),
                                          cache_, config_);
}

IterPtr Tablet::scan_stack() const {
  std::lock_guard lock(mutex_);
  return read_stack(pinned_sources_locked(), cache_, config_.get());
}

IterPtr Tablet::raw_stack() const {
  std::lock_guard lock(mutex_);
  return read_stack(pinned_sources_locked(), cache_, nullptr);
}

std::shared_ptr<const Version> Tablet::version() const {
  std::lock_guard lock(mutex_);
  return versions_.current();
}

std::vector<Cell> Tablet::unflushed_cells() const {
  std::lock_guard lock(mutex_);
  std::vector<IterPtr> children;
  children.reserve(frozen_.size() + 1);
  if (!memtable_->empty()) children.push_back(memtable_->pin().iterator());
  for (const auto& f : frozen_) {  // newest first already
    children.push_back(f.memtable->pin().iterator());
  }
  MergeIterator merged(std::move(children));
  return drain_all(merged);
}

void Tablet::restore_files(std::vector<FileMeta> files) {
  std::lock_guard lock(mutex_);
  VersionEdit edit;
  edit.added = std::move(files);
  versions_.apply(edit);  // fires manifest.install; caller retries
  for (const FileMeta& m : edit.added) {
    next_data_seq_ = std::max(next_data_seq_, m.seq + 1);
  }
}

TabletStats Tablet::stats() const {
  std::lock_guard lock(mutex_);
  TabletStats s;
  s.memtable_entries = memtable_->node_count();
  s.frozen_memtables = frozen_.size();
  for (const auto& f : frozen_) s.frozen_entries += f.memtable->node_count();
  const auto v = versions_.current();
  s.file_count = v->file_count();
  for (const auto& level : v->levels) {
    s.level_files.push_back(level.size());
    std::uint64_t bytes = 0;
    for (const FileMeta& m : level) {
      s.file_entries += m.file->entry_count();
      s.file_block_bytes += m.file->total_block_bytes();
      bytes += m.bytes;
    }
    s.level_bytes.push_back(bytes);
  }
  s.minor_compactions = minor_compactions_;
  s.major_compactions = major_compactions_;
  s.compactions_queued = bg_queued_;
  s.compactions_completed = bg_completed_;
  s.compactions_in_flight =
      (minor_inflight_ ? 1u : 0u) + (major_inflight_ ? 1u : 0u);
  if (cache_) {
    const auto cs = cache_->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_evictions = cs.evictions;
    s.cache_entries = cs.entries;
    s.cache_bytes = cs.bytes;
  }
  return s;
}

std::size_t Tablet::entry_estimate() const {
  const auto s = stats();
  return s.memtable_entries + s.frozen_entries + s.file_entries;
}

std::vector<std::string> Tablet::sample_split_rows(std::size_t n) const {
  if (n == 0) return {};
  std::lock_guard lock(mutex_);
  std::vector<std::string> rows = memtable_->sample_rows(n);
  const auto append = [&rows](std::vector<std::string> more) {
    rows.insert(rows.end(), std::make_move_iterator(more.begin()),
                std::make_move_iterator(more.end()));
  };
  for (const auto& f : frozen_) append(f.memtable->sample_rows(n));
  for (const FileMeta& m : versions_.current()->all_files()) {
    append(m.file->sample_rows(n));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  // Partition callers turn these into half-open range bounds, where an
  // empty row means "unbounded" — an empty sample (possible with empty
  // row keys in the data) must never masquerade as one.
  if (!rows.empty() && rows.front().empty()) rows.erase(rows.begin());
  return rows;
}

}  // namespace graphulo::nosql
