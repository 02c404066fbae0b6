#pragma once
// CellAccumulator: the partition-local pre-combine of table_mult().
//
// A write-mode partition folds every surviving partial product
// A(k, i) (x) B(k, j) into this (+)-accumulator keyed by its output cell,
// so the write path below the DataPlane seam sees one cell per output
// cell per partition instead of one per product (Grappa's owner-side
// accumulation, SNIPPETS.md `spmv_mult`, applied to the combiner
// stack). The (+) is ordinary addition, the fold C's summing combiner
// performs, so pre-summing changes nothing a scan of C returns.
//
// Layout: a flat open-addressing table of 16-byte slots, each a 64-bit
// key (row id << 32 | column id) and a double. A row id interns the
// output row (A's qualifier) together with its family; a column id
// interns B's qualifier. Callers intern once per input cell per joined
// row, so each product costs an integer hash and a double add. The
// table starts at 1,024 slots and doubles on demand up to its slot
// budget, which bounds the memory of a partition whatever the size of
// the product; a node-based hash map would cost several times the 16
// bytes per cell. Starting small matters to small multiplies: with the
// table allocated at full size, each partition pays for writing,
// scanning and clearing 2 MiB, and the masked TableMult rounds of
// table_ktruss (k = 4) on bench_tablemult's n = 64 smoke graph took
// about 1.4 times as long (DESIGN.md §7). The dictionaries live as long as the accumulator and
// are bounded by the partition's distinct row and column keys, not by
// the budget.
//
// Emission: drain() hands every held cell to the emit callback in
// (row, family, column) order — ranks of the sorted dictionaries, never
// hash order — as one Mutation per output row, then empties the table.
// add() drains by itself when a new cell meets a full table. The
// emitted stream is therefore a deterministic function of the sequence
// of add() calls, including where a full table forces an early drain.
// TableMult's exactly-once resume depends on that.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nosql/mutation.hpp"

namespace graphulo::core {

class CellAccumulator {
 public:
  using Emit = std::function<void(nosql::Mutation)>;

  /// Slot budget of one TableMult partition: 2^17 slots of 16 bytes,
  /// 2 MiB. A partition with more distinct cells than the load limit
  /// allows drains early, so C receives some cells more than once (its
  /// combiner folds them). Half this budget sent C about 15% more cells
  /// on the RMAT scale-10 product, enough to set C compacting during
  /// the multiply (DESIGN.md §7).
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 17;

  /// Every drained mutation goes to `emit`. `max_slots` caps the
  /// table; it must be a power of two >= 4.
  explicit CellAccumulator(Emit emit, std::size_t max_slots = kMaxSlots);

  /// Id of the output row (`row`, `family`): A's qualifier and family.
  std::uint32_t row_id(const std::string& row, const std::string& family);

  /// Id of the output column: B's qualifier.
  std::uint32_t column_id(const std::string& column);

  /// Folds `value` into the cell (`row`, `column`). When the cell is new
  /// and the table holds as many cells as its load limit allows, the
  /// table doubles, or, at `max_slots`, drains first; ids stay valid
  /// across drains.
  void add(std::uint32_t row, std::uint32_t column, double value);

  /// Cells held.
  std::size_t size() const noexcept { return size_; }

  /// Emits every held cell in (row, family, column) order, one Mutation
  /// per output row, then empties the table. If `emit` throws, the
  /// accumulator is left in an unspecified state and must be discarded.
  void drain();

 private:
  struct Slot {
    std::uint64_t key;
    double value;
  };
  static_assert(sizeof(Slot) == 16);

  struct RowKeyHash {
    std::size_t operator()(
        const std::pair<std::string, std::string>& k) const noexcept;
  };

  /// Cells the current table may hold: 3/4 of its slots, so linear
  /// probes stay short and always find an empty slot.
  std::size_t load_limit() const noexcept { return slots_.size() / 4 * 3; }
  std::size_t home(std::uint64_t key) const noexcept;
  void grow();

  Emit emit_;
  std::size_t max_slots_;
  unsigned shift_ = 0;  ///< 64 - log2(slots_.size()), for Fibonacci hashing
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::unordered_map<std::pair<std::string, std::string>, std::uint32_t,
                     RowKeyHash>
      row_ids_;
  std::unordered_map<std::string, std::uint32_t> column_ids_;
  /// id -> interned key; the maps' nodes keep the strings in place.
  std::vector<const std::pair<std::string, std::string>*> rows_;
  std::vector<const std::string*> columns_;
};

}  // namespace graphulo::core
