#include "nosql/tablet.hpp"

#include <algorithm>
#include <chrono>
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
      "Inline back-pressure reliefs (flush+compact under the write lock)");
  return c;
}
obs::Counter& relief_failure_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.relief.failures.total",
      "Inline back-pressure reliefs that failed after bounded retries");
  return c;
}

/// Ceiling on frozen memtables per tablet before writers block: enough
/// to ride out a slow flush, small enough to bound memory.
constexpr std::size_t kMaxFrozenMemtables = 4;

/// Bound on the inline picker loop per trigger; budgets grow
/// geometrically so real cascades settle in a couple of steps.
constexpr int kMaxInlineCompactions = 16;

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
  maybe_compact_locked();
}

void Tablet::insert_cell(Cell cell) {
  std::unique_lock lock(mutex_);
  wait_for_capacity_locked(lock);
  memtable_->insert(cell.key, cell.value);
  maybe_compact_locked();
}

void Tablet::maybe_compact_locked() {
  // Shadowed identical-key entries count: rewriting one key must not
  // grow a memtable without bound.
  if (memtable_->node_count() < config_->flush_entries) return;
  if (scheduler_) {
    // Background mode: O(1) freeze + enqueue; the writer returns
    // immediately and the flush runs on the scheduler's pool.
    freeze_active_locked();
    maybe_enqueue_major_locked();
    return;
  }
  // Threshold-triggered compactions are opportunistic: a transient
  // failure (injected or real) leaves the memtable intact — the write
  // that got us here already succeeded — and the next write past the
  // threshold retries the flush. Mirrors a tablet server whose minor
  // compaction failed: data stays in memory + WAL, nothing is lost.
  try {
    flush_locked();
    // Settle the levels: an L0->L1 compaction can push L1 over budget,
    // which pushes a slice into L2, and so on down the tree.
    for (int round = 0; round < kMaxInlineCompactions; ++round) {
      const auto pick = pick_locked();
      if (!pick) break;
      run_compaction_locked(*pick);
    }
  } catch (const util::TransientError& e) {
    GRAPHULO_WARN << "Tablet[" << extent_.start_row << "," << extent_.end_row
                  << "): deferred flush/compaction failed transiently, will "
                  << "retry on a later write: " << e.what();
  }
}

void Tablet::wait_for_capacity_locked(std::unique_lock<std::mutex>& lock) {
  if (!scheduler_) return;
  while (versions_.current()->file_count() >= config_->max_tablet_files ||
         frozen_.size() >= kMaxFrozenMemtables) {
    if (!minor_inflight_ && !frozen_.empty()) enqueue_minor_locked();
    maybe_enqueue_major_locked();
    if (minor_inflight_ || major_inflight_) {
      state_cv_.wait_for(lock, std::chrono::microseconds(200));
      continue;
    }
    // Nothing is in flight and nothing could be queued (scheduler
    // shutting down, or the picker found no work): relieve the
    // pressure inline rather than spinning. Transient failures
    // (injected or real) get bounded-backoff retries — giving up on
    // the first fault would let the writer proceed with the ceiling
    // still breached and the pressure unrelieved.
    ++relief_runs_;
    relief_total().inc();
    try {
      util::with_retries("Tablet: back-pressure relief", util::RetryPolicy{},
                         [&] {
                           flush_locked();
                           major_compact_locked();
                         });
    } catch (const util::TransientError& e) {
      ++relief_failures_;
      relief_failure_total().inc();
      GRAPHULO_WARN << "Tablet: inline back-pressure relief failed after "
                    << "retries: " << e.what();
    }
    break;
  }
}

std::vector<Cell> Tablet::build_minor_cells(const Memtable& memtable) const {
  // Site fires before any state change: a failed flush leaves memtable
  // and file set exactly as they were.
  util::fault::point(util::fault::sites::kMemtableFlush);
  TRACE_SPAN("tablet.flush");
  IterPtr stack = memtable.pin().iterator();
  stack = apply_scope_iterators(std::move(stack), config_->iterators,
                                kMincScope);
  return drain_all(*stack);
}

void Tablet::freeze_active_locked() {
  if (memtable_->empty()) return;  // never enqueue a no-op flush
  frozen_.insert(frozen_.begin(),
                 FrozenMemtable{next_data_seq_++, std::move(memtable_)});
  frozen_gauge().add(1);
  memtable_ = std::make_shared<Memtable>();
  enqueue_minor_locked();
}

void Tablet::enqueue_minor_locked() {
  if (!scheduler_ || minor_inflight_) return;
  minor_inflight_ = true;
  auto self = shared_from_this();
  if (scheduler_->enqueue([self] { self->run_background_minor(); })) {
    ++bg_queued_;
  } else {
    minor_inflight_ = false;  // scheduler stopping; flush() rescues later
  }
}

void Tablet::maybe_enqueue_major_locked() {
  if (!scheduler_ || major_inflight_) return;
  if (!pick_locked()) return;
  major_inflight_ = true;
  auto self = shared_from_this();
  if (scheduler_->enqueue([self] { self->run_background_major(); })) {
    ++bg_queued_;
  } else {
    major_inflight_ = false;
  }
}

std::optional<CompactionPick> Tablet::pick_locked() const {
  const auto v = versions_.current();
  const bool pressure = v->file_count() >= config_->max_tablet_files;
  return pick_compaction(*v, config_->compaction, pressure);
}

void Tablet::run_background_minor() {
  std::unique_lock lock(mutex_);
  while (!frozen_.empty()) {
    const FrozenMemtable target = frozen_.back();  // oldest first
    lock.unlock();
    std::shared_ptr<RFile> file;
    bool ok = true;
    try {
      auto cells = build_minor_cells(*target.memtable);
      if (!cells.empty()) {
        file = RFile::from_sorted(std::move(cells), config_->rfile);
      }
    } catch (const std::exception& e) {
      // Contained exactly like an inline threshold flush: the frozen
      // memtable stays queued in memory (and in the WAL) and a later
      // trigger or an explicit flush() retries it.
      GRAPHULO_WARN << "Tablet[" << extent_.start_row << ","
                    << extent_.end_row
                    << "): background flush failed, keeping memtable "
                    << "frozen for retry: " << e.what();
      ok = false;
    }
    lock.lock();
    if (!ok) break;
    try {
      install_minor_locked(target.seq, file);
    } catch (const util::TransientError& e) {
      // The version install faulted: the frozen memtable is untouched
      // (install fires before any state change) and a later trigger or
      // explicit flush() retries it.
      GRAPHULO_WARN << "Tablet: background flush install failed "
                    << "transiently, keeping memtable frozen: " << e.what();
      break;
    }
    maybe_enqueue_major_locked();
  }
  minor_inflight_ = false;
  ++bg_completed_;
  state_cv_.notify_all();
}

void Tablet::run_background_major() {
  std::unique_lock lock(mutex_);
  const auto pick = pick_locked();
  if (!pick) {
    major_inflight_ = false;
    ++bg_completed_;
    state_cv_.notify_all();
    return;
  }
  // Delete markers drop only when the output is bottommost for its key
  // range AND nothing newer is buffered (a frozen memtable may hold a
  // write the markers must still suppress at scan time).
  const bool drop = pick->bottommost && frozen_.empty();
  lock.unlock();

  std::shared_ptr<RFile> output;
  std::size_t out_cells = 0;
  bool ok = true;
  try {
    TRACE_SPAN("tablet.compact");
    util::fault::point(util::fault::sites::kTabletCompact);
    auto cells = merge_compaction_inputs(pick->inputs, drop, *config_,
                                         config_->iterators);
    out_cells = cells.size();
    if (!cells.empty()) {
      output = RFile::from_sorted(std::move(cells), config_->rfile);
    }
  } catch (const std::exception& e) {
    GRAPHULO_WARN << "Tablet[" << extent_.start_row << "," << extent_.end_row
                  << "): background compaction failed, keeping "
                  << "inputs: " << e.what();
    ok = false;
  }

  lock.lock();
  bool installed = false;
  if (ok) {
    VersionEdit edit;
    for (const FileMeta& m : pick->inputs) edit.removed.push_back(m.file_id);
    if (output) {
      edit.added.push_back(FileMeta::describe(
          output, static_cast<int>(pick->output_level),
          max_input_seq(pick->inputs)));
    }
    try {
      // apply_edit rejects the edit when an input vanished (an explicit
      // major_compact() raced us and already merged it): discard ours.
      installed = apply_edit_locked(edit);
      if (installed) {
        ++major_compactions_;
        major_total().inc();
        compact_cells_total().inc(out_cells);
      } else {
        GRAPHULO_DEBUG << "Tablet: discarding background compaction result "
                       << "(inputs changed during merge)";
      }
    } catch (const util::TransientError& e) {
      GRAPHULO_WARN << "Tablet: background compaction install failed "
                    << "transiently, keeping inputs: " << e.what();
    }
  }
  major_inflight_ = false;
  ++bg_completed_;
  // Cascade: this install may have pushed the next level over budget.
  if (installed) maybe_enqueue_major_locked();
  state_cv_.notify_all();
}

void Tablet::run_compaction_locked(const CompactionPick& pick) {
  TRACE_SPAN("tablet.compact");
  // Before any state change, like the flush site above.
  util::fault::point(util::fault::sites::kTabletCompact);
  // Same drop rule as the background path: bottommost + nothing frozen.
  const bool drop = pick.bottommost && frozen_.empty();
  auto cells = merge_compaction_inputs(pick.inputs, drop, *config_,
                                       config_->iterators);
  const std::size_t out_cells = cells.size();
  VersionEdit edit;
  for (const FileMeta& m : pick.inputs) edit.removed.push_back(m.file_id);
  if (!cells.empty()) {
    edit.added.push_back(FileMeta::describe(
        RFile::from_sorted(std::move(cells), config_->rfile),
        static_cast<int>(pick.output_level), max_input_seq(pick.inputs)));
  }
  if (apply_edit_locked(edit)) {
    ++major_compactions_;
    major_total().inc();
    compact_cells_total().inc(out_cells);
    state_cv_.notify_all();
  }
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
  // Let an in-flight background flush finish rather than duplicating
  // its work, then drain whatever is left inline.
  if (scheduler_) state_cv_.wait(lock, [&] { return !minor_inflight_; });
  flush_locked();
}

void Tablet::flush_locked() {
  // Rescue path: frozen memtables whose background flush failed (or
  // was never queued) drain here, oldest first, preserving seq order.
  while (!frozen_.empty()) {
    const FrozenMemtable target = frozen_.back();
    auto cells = build_minor_cells(*target.memtable);
    std::shared_ptr<RFile> file;
    if (!cells.empty()) {
      file = RFile::from_sorted(std::move(cells), config_->rfile);
    }
    install_minor_locked(target.seq, file);
  }
  if (memtable_->empty()) return;
  const std::uint64_t seq = next_data_seq_;
  auto cells = build_minor_cells(*memtable_);
  if (!cells.empty()) {
    auto file = RFile::from_sorted(std::move(cells), config_->rfile);
    VersionEdit edit;
    edit.added.push_back(FileMeta::describe(file, /*level=*/0, seq));
    // May fault: nothing is committed until the install lands.
    apply_edit_locked(edit);
    flush_cells_total().inc(file->entry_count());
  }
  // Past every fault site: commit the sequence number and start a fresh
  // memtable (readers may still hold the flushed one).
  ++next_data_seq_;
  memtable_ = std::make_shared<Memtable>();
  ++minor_compactions_;
  flush_total().inc();
  state_cv_.notify_all();
}

void Tablet::major_compact(const std::vector<IteratorSetting>& once) {
  std::unique_lock lock(mutex_);
  if (scheduler_) {
    state_cv_.wait(lock,
                   [&] { return !minor_inflight_ && !major_inflight_; });
  }
  flush_locked();
  major_compact_locked(once);
}

void Tablet::major_compact_locked(const std::vector<IteratorSetting>& once) {
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
  s.relief_runs = relief_runs_;
  s.relief_failures = relief_failures_;
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
