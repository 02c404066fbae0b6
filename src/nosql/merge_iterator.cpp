#include "nosql/merge_iterator.hpp"

#include <algorithm>

#include "nosql/block_cache.hpp"

namespace graphulo::nosql {

MergeIterator::MergeIterator(std::vector<IterPtr> children)
    : children_(std::move(children)) {}

void MergeIterator::seek(const Range& range) {
  for (auto& child : children_) child->seek(range);
  choose_current();
}

void MergeIterator::next() {
  children_[current_]->next();
  choose_current();
}

std::size_t MergeIterator::next_block(CellBlock& out, std::size_t max) {
  std::size_t appended = 0;
  while (appended < max && current_ != kNone) {
    SortedKVIterator& win = *children_[current_];
    // Barrier: the smallest top key among the OTHER children (lowest
    // index wins ties, matching choose_current's tie-break). It stays
    // valid through the run because only the winner is advanced.
    const Key* barrier = nullptr;
    std::size_t barrier_idx = kNone;
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i == current_ || !children_[i]->has_top()) continue;
      const Key& k = children_[i]->top_key();
      if (!barrier || k < *barrier) {
        barrier = &k;
        barrier_idx = i;
      }
    }
    if (!barrier) {
      // Sole surviving child: delegate the whole remainder of the block
      // to its (possibly bulk) next_block.
      appended += win.next_block(out, max - appended);
      if (!win.has_top()) current_ = kNone;
    } else {
      // Emit the winner's whole run below the barrier in one bounded
      // bulk call (leaves gallop to the run's end instead of paying a
      // comparison plus virtual dispatch per cell). At a tie the winner
      // goes first only when its child index is lower (newer source),
      // matching choose_current's tie-break.
      appended += win.next_block_until(out, max - appended, *barrier,
                                       /*allow_equal=*/current_ < barrier_idx);
      // Re-elect without rescanning every child: the others sat still,
      // so the new minimum is either the winner (run stopped at the
      // block cap) or the barrier child (run stopped at the barrier).
      // One comparison decides; `barrier` stayed valid throughout.
      if (!win.has_top()) {
        current_ = barrier_idx;
      } else {
        const auto cmp = win.top_key() <=> *barrier;
        if (cmp > 0 || (cmp == 0 && current_ > barrier_idx)) {
          current_ = barrier_idx;
        }
      }
    }
  }
  return appended;
}

LevelIterator::LevelIterator(
    std::vector<FileMeta> files, std::shared_ptr<BlockCache> cache,
    std::shared_ptr<std::atomic<std::uint64_t>> consulted)
    : files_(std::move(files)),
      cache_(std::move(cache)),
      consulted_(std::move(consulted)) {}

void LevelIterator::seek(const Range& range) {
  range_ = range;
  current_.reset();
  // First file whose last key reaches the range start; earlier files
  // lie entirely below the range and are never opened.
  std::size_t idx = 0;
  if (range.has_start) {
    const auto it = std::lower_bound(
        files_.begin(), files_.end(), range.start,
        [](const FileMeta& m, const Key& k) { return m.last_key < k; });
    idx = static_cast<std::size_t>(it - files_.begin());
  }
  open_from(idx);
}

void LevelIterator::open_from(std::size_t idx) {
  for (; idx < files_.size(); ++idx) {
    const FileMeta& m = files_[idx];
    // Files are in key order: once one starts past the range end, the
    // rest do too.
    if (range_.is_past_end(m.first_key)) break;
    if (!m.file->may_intersect(range_)) continue;  // bounds prune, free
    if (consulted_) consulted_->fetch_add(1, std::memory_order_relaxed);
    IterPtr it = m.file->iterator(cache_.get());
    it->seek(range_);
    if (it->has_top()) {
      current_ = std::move(it);
      index_ = idx;
      return;
    }
  }
  current_.reset();
  index_ = files_.size();
}

void LevelIterator::next() {
  current_->next();
  if (!current_->has_top()) open_from(index_ + 1);
}

std::size_t LevelIterator::next_block(CellBlock& out, std::size_t max) {
  std::size_t appended = 0;
  while (appended < max && has_top()) {
    appended += current_->next_block(out, max - appended);
    if (!current_->has_top()) open_from(index_ + 1);
  }
  return appended;
}

std::size_t LevelIterator::next_block_until(CellBlock& out, std::size_t max,
                                            const Key& bound,
                                            bool allow_equal) {
  std::size_t appended = 0;
  while (appended < max && has_top()) {
    appended += current_->next_block_until(out, max - appended, bound,
                                           allow_equal);
    if (current_->has_top()) break;  // hit the bound (or the cap)
    open_from(index_ + 1);
  }
  return appended;
}

void MergeIterator::choose_current() {
  // Linear scan over children: tablet scan stacks have only a handful of
  // sources (1 memtable + O(compaction fan-in) files), so a heap would
  // not pay for itself.
  current_ = kNone;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->has_top()) continue;
    if (current_ == kNone ||
        children_[i]->top_key() < children_[current_]->top_key()) {
      current_ = i;
    }
  }
}

}  // namespace graphulo::nosql
