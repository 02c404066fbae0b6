#pragma once
// Heap-merge of several sorted sources into one sorted stream — the
// bottom of every tablet scan stack (pinned memtables + each immutable
// file) and of every compaction — plus the level iterator that walks
// one sorted run of non-overlapping files as a single lazy source. A
// level iterator shares its table's block cache, so a scan stack stays
// readable after the table, tablet or snapshot it came from is gone.

#include <atomic>
#include <memory>
#include <vector>

#include "nosql/iterator.hpp"
#include "nosql/version_set.hpp"

namespace graphulo::nosql {

class BlockCache;

/// Merges child iterators by key order. Ties across children are broken
/// by child index, with LOWER indices first; callers place newer sources
/// (the memtable) at lower indices so the versioning iterator sees the
/// newest duplicate first.
class MergeIterator : public SortedKVIterator {
 public:
  explicit MergeIterator(std::vector<IterPtr> children);

  void seek(const Range& range) override;
  bool has_top() const override { return current_ != kNone; }
  const Key& top_key() const override { return children_[current_]->top_key(); }
  const Value& top_value() const override {
    return children_[current_]->top_value();
  }
  void next() override;

  /// Run-length fast path: while the winning child's keys stay below
  /// every other child's top (the "barrier"), the whole run is emitted
  /// with ONE key comparison per cell instead of a full re-election of
  /// the minimum across children.
  std::size_t next_block(CellBlock& out, std::size_t max) override;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void choose_current();

  std::vector<IterPtr> children_;
  std::size_t current_ = kNone;
};

/// Iterates one sorted level — files with pairwise-disjoint key ranges,
/// in key order — as a single sorted source. seek() binary-searches the
/// file list and opens AT MOST the files the range actually touches, so
/// a point read through an N-file level costs one file open, not N;
/// this is what turns the leveled layout's O(levels) read bound into an
/// O(levels) cost in practice. Also used one-file-per-instance for L0,
/// so every consulted file is counted uniformly.
class LevelIterator : public SortedKVIterator {
 public:
  /// `files` must be in key order with disjoint ranges (L1+ levels) or
  /// a single file (L0 usage). Files are read through `cache` (null =
  /// no block cache). `consulted`, when set, is incremented
  /// once per file actually opened during this iterator's lifetime —
  /// the read-amplification probe behind the scan.files_consulted
  /// histogram.
  LevelIterator(std::vector<FileMeta> files,
                std::shared_ptr<BlockCache> cache,
                std::shared_ptr<std::atomic<std::uint64_t>> consulted);

  void seek(const Range& range) override;
  bool has_top() const override { return current_ && current_->has_top(); }
  const Key& top_key() const override { return current_->top_key(); }
  const Value& top_value() const override { return current_->top_value(); }
  void next() override;
  std::size_t next_block(CellBlock& out, std::size_t max) override;
  std::size_t next_block_until(CellBlock& out, std::size_t max,
                               const Key& bound, bool allow_equal) override;

 private:
  /// Opens the first file at or after `idx` with cells inside range_.
  void open_from(std::size_t idx);

  std::vector<FileMeta> files_;
  std::shared_ptr<BlockCache> cache_;
  std::shared_ptr<std::atomic<std::uint64_t>> consulted_;
  Range range_;
  std::size_t index_ = 0;  ///< file backing current_ (files_.size() = done)
  IterPtr current_;
};

}  // namespace graphulo::nosql
