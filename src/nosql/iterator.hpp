#pragma once
// The server-side iterator framework — the heart of the Accumulo
// execution model that Graphulo targets ("use Accumulo server
// components such as iterators to perform graph analytics", Section
// I-A).
//
// A SortedKVIterator yields cells in key order after a seek(). Iterators
// stack: filters, versioning, combiners and user analytics iterators all
// wrap a source iterator and present the same interface, so a scan is
// just the top of a stack whose bottom merges the tablet's memtable and
// immutable files. The same stacks run at compaction time, which is how
// summing combiners keep partial products collapsed on disk.

#include <memory>
#include <string>
#include <vector>

#include "nosql/key.hpp"

namespace graphulo::nosql {

/// A contiguous batch of cells filled by SortedKVIterator::next_block().
/// Designed for reuse across fills: clear() only resets the logical size,
/// so each slot's key/value strings keep their heap buffers and the next
/// fill copy-assigns into warm capacity instead of allocating.
class CellBlock {
 public:
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Logically empties the block; slot capacity (including the string
  /// buffers inside each retained Cell) is kept for the next fill.
  void clear() noexcept { size_ = 0; }

  Cell& operator[](std::size_t i) noexcept { return slots_[i]; }
  const Cell& operator[](std::size_t i) const noexcept { return slots_[i]; }

  Cell* begin() noexcept { return slots_.data(); }
  Cell* end() noexcept { return slots_.data() + size_; }
  const Cell* begin() const noexcept { return slots_.data(); }
  const Cell* end() const noexcept { return slots_.data() + size_; }

  /// Appends one cell by copy-assignment into the next (possibly
  /// recycled) slot.
  void append(const Key& key, const Value& value) {
    Cell& c = grow();
    c.key = key;
    c.value = value;
  }

  /// Swaps two slots — used by filtering stages to compact kept cells
  /// toward the front without losing the dropped slots' buffers.
  void swap_cells(std::size_t a, std::size_t b) noexcept {
    std::swap(slots_[a], slots_[b]);
  }

  /// Shrinks the logical size to `n` (no-op when already smaller).
  void truncate(std::size_t n) noexcept {
    if (n < size_) size_ = n;
  }

 private:
  Cell& grow() {
    if (size_ == slots_.size()) slots_.emplace_back();
    return slots_[size_++];
  }

  std::vector<Cell> slots_;
  std::size_t size_ = 0;
};

/// Interface for all sorted key/value iterators.
class SortedKVIterator {
 public:
  virtual ~SortedKVIterator() = default;

  /// Positions the iterator at the first cell inside `range`.
  virtual void seek(const Range& range) = 0;

  /// True when positioned on a cell.
  virtual bool has_top() const = 0;

  /// Key of the current cell. Precondition: has_top().
  virtual const Key& top_key() const = 0;

  /// Value of the current cell. Precondition: has_top().
  virtual const Value& top_value() const = 0;

  /// Advances to the next cell (possibly exhausting the iterator).
  virtual void next() = 0;

  /// Batched advancement: APPENDS up to `max` cells to `out` (callers
  /// clear the block themselves) and consumes them from the stream.
  /// Returns the number appended; 0 means exhausted. Invariants:
  ///  - has_top() implies next_block(out, max >= 1) appends at least one
  ///    cell, so block consumers can use has_top() as "more data".
  ///  - After it returns, has_top()/top_key()/next() remain valid, so
  ///    cell-at-a-time and block calls can be mixed freely.
  /// The default walks the virtual cell interface; iterators with a
  /// cheaper bulk path override it. Wrappers that drop or rewrite cells
  /// MUST override it too (the stock filter/versioning/combiner stages
  /// do), otherwise blocks would bypass their transformation.
  virtual std::size_t next_block(CellBlock& out, std::size_t max) {
    std::size_t appended = 0;
    while (appended < max && has_top()) {
      out.append(top_key(), top_value());
      ++appended;
      next();
    }
    return appended;
  }

  /// Bounded batched advancement: like next_block(), but stops before
  /// the first key above `bound` (at `bound` itself when `allow_equal`
  /// is false). MergeIterator uses this to emit a winning child's whole
  /// run below the other children's tops in one call; leaves over sorted
  /// random-access storage override it with a gallop + binary search, so
  /// a run costs O(log run) key comparisons instead of one comparison
  /// plus four virtual calls per cell. Same invariants as next_block()
  /// except that 0 may be returned while has_top() is still true (the
  /// top is already past the bound).
  virtual std::size_t next_block_until(CellBlock& out, std::size_t max,
                                       const Key& bound, bool allow_equal) {
    std::size_t appended = 0;
    while (appended < max && has_top()) {
      const auto cmp = top_key() <=> bound;
      if (cmp > 0 || (cmp == 0 && !allow_equal)) break;
      out.append(top_key(), top_value());
      ++appended;
      next();
    }
    return appended;
  }
};

using IterPtr = std::unique_ptr<SortedKVIterator>;

/// Convenience base for iterators that wrap one source.
class WrappingIterator : public SortedKVIterator {
 public:
  explicit WrappingIterator(IterPtr source) : source_(std::move(source)) {}

  void seek(const Range& range) override { source_->seek(range); }
  bool has_top() const override { return source_->has_top(); }
  const Key& top_key() const override { return source_->top_key(); }
  const Value& top_value() const override { return source_->top_value(); }
  void next() override { source_->next(); }

 protected:
  SortedKVIterator& source() { return *source_; }
  const SortedKVIterator& source() const { return *source_; }

 private:
  IterPtr source_;
};

/// Iterator over an in-memory sorted vector of cells: a fixed source
/// for tests and for iterator settings that substitute their own cells.
/// (Memtables are read through MemtablePin, memtable.hpp.)
class VectorIterator : public SortedKVIterator {
 public:
  /// `cells` must already be sorted by Key.
  explicit VectorIterator(std::shared_ptr<const std::vector<Cell>> cells)
      : cells_(std::move(cells)) {}

  void seek(const Range& range) override;
  bool has_top() const override { return pos_ < limit_; }
  const Key& top_key() const override { return (*cells_)[pos_].key; }
  const Value& top_value() const override { return (*cells_)[pos_].value; }
  void next() override { ++pos_; }

  /// Bulk range copy straight out of the backing vector — no virtual
  /// dispatch per cell.
  std::size_t next_block(CellBlock& out, std::size_t max) override;

  /// Gallop + binary search for the end of the qualifying run, then a
  /// bulk copy.
  std::size_t next_block_until(CellBlock& out, std::size_t max,
                               const Key& bound, bool allow_equal) override;

 private:
  std::shared_ptr<const std::vector<Cell>> cells_;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;
};

/// Drains an iterator into a vector (test/debug helper; scans of bounded
/// result size).
std::vector<Cell> drain(SortedKVIterator& it, const Range& range);

}  // namespace graphulo::nosql
