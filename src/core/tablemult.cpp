#include "core/tablemult.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "assoc/table_io.hpp"
#include "core/cell_accumulator.hpp"
#include "core/table_scan.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/codec.hpp"
#include "nosql/combiner.hpp"
#include "la/spgemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace graphulo::core {

using nosql::CombinerIterator;
using nosql::decode_double;

namespace {
constexpr const char* kSumCombinerName = "plus-combiner";
}  // namespace

nosql::TableConfig sum_table_config() {
  nosql::TableConfig cfg;
  cfg.versioning = false;  // the combiner must see every partial product
  cfg.attach_iterator({10, kSumCombinerName, nosql::kAllScopes,
                       [](nosql::IterPtr src) {
                         return std::make_unique<CombinerIterator>(
                             std::move(src), nosql::sum_double_reducer());
                       }});
  return cfg;
}

bool is_sum_table_config(const nosql::TableConfig& cfg) {
  return !cfg.versioning &&
         std::any_of(cfg.iterators.begin(), cfg.iterators.end(),
                     [](const nosql::IteratorSetting& it) {
                       return it.name == kSumCombinerName &&
                              it.scopes == nosql::kAllScopes;
                     });
}

void create_sum_table(nosql::Instance& db, const std::string& table) {
  if (!db.table_exists(table)) {
    db.create_table(table, sum_table_config());
  } else if (!is_sum_table_config(*db.table_config(table))) {
    throw std::invalid_argument(
        "table '" + table +
        "' exists without the summing combiner of sum_table_config(); "
        "TableMult pre-sums its products, so C must be a sum table");
  }
}

namespace {

obs::Counter& tm_partitions() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.partitions.total", "TableMult partition attempts completed");
  return c;
}
obs::Counter& tm_rows_joined() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.rows_joined.total",
      "Shared rows joined by the TableMult merge join");
  return c;
}
obs::Counter& tm_partial_products() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.partial_products.total",
      "Partial products computed by TableMult (surviving the mask)");
  return c;
}
obs::Counter& tm_cells_emitted() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.cells_emitted.total",
      "Pre-combined cells TableMult partitions sent to the result table");
  return c;
}
obs::Counter& tm_partial_products_pruned() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.partial_products_pruned.total",
      "Partial products dropped by the TableMult structural mask before "
      "emission");
  return c;
}

/// A partition attempt exceeded its cooperative deadline.
struct PartitionTimeout : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The structural mask, loaded once per multiply from one consistent
/// cut of the mask table: output row key -> the set of output
/// qualifiers M stores there. Values are ignored (presence IS the
/// mask); mask_filter is applied at load. Read-only after construction,
/// so all partition workers share one instance without locking.
struct MaskIndex {
  std::unordered_map<std::string, std::unordered_set<std::string>> rows;
  std::size_t cells = 0;

  bool contains(const std::string& row, const std::string& qualifier) const {
    const auto it = rows.find(row);
    return it != rows.end() && it->second.count(qualifier) != 0;
  }
};

MaskIndex load_mask(TableMultDataPlane::ReadView& view,
                    const std::string& mask_table,
                    const CellPredicate& filter) {
  MaskIndex index;
  RowReader reader(view.open_scan(mask_table, nosql::Range::all()));
  while (reader.has_next()) {
    auto block = reader.next_row();
    if (block.cells.empty()) continue;
    auto& qualifiers = index.rows[block.row];
    for (const auto& cell : block.cells) {
      if (filter && !filter(block.row, cell.key.qualifier)) continue;
      if (qualifiers.insert(cell.key.qualifier).second) ++index.cells;
    }
    if (qualifiers.empty()) index.rows.erase(block.row);
  }
  return index;
}

/// Per-partition fused-reduce accumulator (table_mult_reduce). Each
/// partition owns one; the join barrier folds them.
struct ReduceAcc {
  double total = 0.0;
  std::map<std::string, double> rows;  // filled only when per_row
};

// A fold policy receives the join's surviving products: begin_row with
// B(k, :)'s cells whose values decode, begin_a per A(k, i) cell,
// fold(j, product) per product with j indexing those B cells, end_a
// after the A cell, and finish once the join is over.

/// Fused reduce: the partition's scalar sum and, with `per_row`, its
/// per-output-row sums.
class ReduceFold {
 public:
  ReduceFold(ReduceAcc& acc, bool per_row) : acc_(acc), per_row_(per_row) {}

  void begin_row(const std::vector<const nosql::Cell*>& /*b*/) {}
  void begin_a(const nosql::Cell& a) {
    row_ = &a.key.qualifier;
    row_sum_ = 0.0;
  }
  void fold(std::size_t /*j*/, double product) { row_sum_ += product; }
  void end_a() {
    acc_.total += row_sum_;
    if (per_row_ && row_sum_ != 0.0) acc_.rows[*row_] += row_sum_;
  }
  void finish() {}

 private:
  ReduceAcc& acc_;
  bool per_row_;
  const std::string* row_ = nullptr;
  double row_sum_ = 0.0;
};

/// Write mode: products pre-combine by output cell in the partition's
/// CellAccumulator, which drains into the sink when the join ends, or
/// earlier when its slot budget is full. The drained mutation stream is
/// a deterministic function of the inputs.
class EmitFold {
 public:
  explicit EmitFold(nosql::MutationSink& writer)
      : writer_(writer), acc_([this](nosql::Mutation m) {
          cells_emitted_ += m.updates().size();
          writer_.add_mutation(std::move(m));
        }) {}

  void begin_row(const std::vector<const nosql::Cell*>& b) {
    columns_.clear();
    for (const nosql::Cell* cb : b) {
      columns_.push_back(acc_.column_id(cb->key.qualifier));
    }
  }
  void begin_a(const nosql::Cell& a) {
    row_ = acc_.row_id(a.key.qualifier, a.key.family);
  }
  void fold(std::size_t j, double product) {
    acc_.add(row_, columns_[j], product);
  }
  void end_a() {}
  void finish() { acc_.drain(); }

  std::size_t cells_emitted() const noexcept { return cells_emitted_; }

 private:
  nosql::MutationSink& writer_;
  std::size_t cells_emitted_ = 0;
  CellAccumulator acc_;
  std::uint32_t row_ = 0;
  std::vector<std::uint32_t> columns_;  // ids of the joined row's B cells
};

/// The row-aligned merge join of one partition attempt: scans [range)
/// of A and B (through the scan-time row/col filters) and, for every
/// shared row k, hands each mask-surviving product A(k, i) (x) B(k, j)
/// to `fold`. Counts into `stats`; throws PartitionTimeout once the
/// attempt has run past options.partition_deadline. Runs on a worker
/// thread; touches no shared state beyond the (thread-safe) data-plane
/// scan entry points and the read-only MaskIndex.
template <class Fold>
void merge_join(TableMultDataPlane::ReadView& view, const std::string& table_a,
                const std::string& table_b, const TableMultOptions& options,
                const MaskIndex* mask, const nosql::Range& range,
                const util::Timer& total, Fold& fold,
                TableMultPartitionStats& stats) {
  const double deadline_s =
      std::chrono::duration<double>(options.partition_deadline).count();
  const bool complement = options.complement_mask;

  // The view is one pinned cut: every worker and every retry sees the
  // same inputs.
  RowReader reader_a(view.open_scan(table_a, range), range);
  RowReader reader_b(view.open_scan(table_b, range), range);
  reader_a.set_cell_filter(options.row_filter);
  reader_b.set_cell_filter(options.col_filter);

  // With a filter installed a row can assemble empty; skip those so the
  // join only ever sees rows that still hold cells.
  const auto read_row = [](RowReader& reader, RowBlock& row) {
    while (reader.has_next()) {
      row = reader.next_row();
      if (!row.cells.empty()) return true;
    }
    return false;
  };

  util::Timer phase;
  RowBlock row_a, row_b;
  std::vector<const nosql::Cell*> b_cells;  // B(k, :) cells that decode
  std::vector<double> b_values;             // their values
  bool have_a = read_row(reader_a, row_a);
  bool have_b = read_row(reader_b, row_b);
  stats.scan_seconds += phase.seconds();
  while (have_a && have_b) {
    util::fault::point(util::fault::sites::kTableMultWorker);
    if (deadline_s > 0.0 && total.seconds() > deadline_s) {
      throw PartitionTimeout("TableMult partition [" + stats.start_row +
                             ", " + stats.end_row + ") exceeded its " +
                             std::to_string(deadline_s) + "s deadline");
    }
    if (row_a.row < row_b.row) {
      phase.reset();
      reader_a.advance_to(row_b.row);
      have_a = read_row(reader_a, row_a);
      stats.scan_seconds += phase.seconds();
      continue;
    }
    if (row_b.row < row_a.row) {
      phase.reset();
      reader_b.advance_to(row_a.row);
      have_b = read_row(reader_b, row_b);
      stats.scan_seconds += phase.seconds();
      continue;
    }
    // Shared row k: the outer product of A(k, :) and B(k, :).
    ++stats.rows_joined;
    phase.reset();
    b_cells.clear();
    b_values.clear();
    for (const auto& cb : row_b.cells) {
      if (const auto bv = decode_double(cb.value)) {
        b_cells.push_back(&cb);
        b_values.push_back(*bv);
      }
    }
    fold.begin_row(b_cells);
    for (const auto& ca : row_a.cells) {
      const auto av = decode_double(ca.value);
      if (!av) continue;
      fold.begin_a(ca);
      for (std::size_t j = 0; j < b_cells.size(); ++j) {
        if (mask && mask->contains(ca.key.qualifier,
                                   b_cells[j]->key.qualifier) == complement) {
          // Structural mask: the product is pruned before the fold — it
          // never costs an accumulator slot, a mutation, a WAL record or
          // a combiner fold.
          ++stats.partial_products_pruned;
          continue;
        }
        fold.fold(j, options.multiply(*av, b_values[j]));
        ++stats.partial_products;
      }
      fold.end_a();
    }
    stats.emit_seconds += phase.seconds();
    phase.reset();
    have_a = read_row(reader_a, row_a);
    have_b = read_row(reader_b, row_b);
    stats.scan_seconds += phase.seconds();
  }
  phase.reset();
  fold.finish();
  stats.emit_seconds += phase.seconds();
  stats.seeks = reader_a.seeks_performed() + reader_b.seeks_performed();
}

/// One attempt at one partition: the merge join folding into the
/// partition's local accumulator — `reduce` in fused-reduce mode, else
/// a CellAccumulator draining into a private MutationSink into C.
///
/// Exactly-once across attempts (write mode): the mutation stream of a
/// partition is a deterministic function of the (stable) inputs, mask
/// and filters included, and every attempt writes it from its beginning
/// through a writer the session opened under the partition's writer id.
/// The table C dedups by (writer id, seq), so a retry applies only what
/// no earlier attempt applied. On failure the buffered remainder is
/// abandoned, never flushed from the destructor: the retry regenerates
/// it. Reduce mode has no durable state: a retry starts over on a fresh
/// accumulator.
TableMultPartitionStats mult_partition(TableMultDataPlane::ReadView& view,
                                       const std::string& table_a,
                                       const std::string& table_b,
                                       const TableMultOptions& options,
                                       const MaskIndex* mask,
                                       ReduceAcc* reduce, bool per_row,
                                       const nosql::Range& range,
                                       nosql::MutationSink* writer) {
  // Per-partition wall time: same quantity TableMultPartitionStats
  // reports per call, accumulated here as a global latency histogram.
  TRACE_SPAN("tablemult.partition");
  util::Timer total;
  TableMultPartitionStats stats;
  if (range.has_start) stats.start_row = range.start.row;
  if (range.has_end) stats.end_row = range.end.row;

  if (reduce) {
    ReduceFold fold(*reduce, per_row);
    merge_join(view, table_a, table_b, options, mask, range, total, fold,
               stats);
    stats.seconds = total.seconds();
    return stats;
  }

  try {
    EmitFold fold(*writer);
    merge_join(view, table_a, table_b, options, mask, range, total, fold,
               stats);
    stats.cells_emitted = fold.cells_emitted();
    util::Timer phase;
    writer->close();
    stats.flush_seconds = phase.seconds();
    stats.seconds = total.seconds();
    return stats;
  } catch (...) {
    writer->abandon();
    throw;
  }
}

/// Runs one partition to completion: retries transient failures on
/// fresh scans + a fresh writer (see mult_partition for the
/// exactly-once argument; reduce attempts restart on a cleared
/// accumulator), degrades a deadline overrun into a timed-out partition
/// record instead of an exception. A retry re-opens the SAME partition
/// index from the write session, so it resumes the same writer stream.
TableMultPartitionStats run_partition(
    TableMultDataPlane::ReadView& view, const std::string& table_a,
    const std::string& table_b, const TableMultOptions& options,
    const MaskIndex* mask, ReduceAcc* reduce, bool per_row,
    const nosql::Range& range, TableMultDataPlane::WriteSession* session,
    std::size_t partition_index) {
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      if (reduce) *reduce = ReduceAcc{};
      std::unique_ptr<nosql::MutationSink> writer;
      if (session != nullptr) writer = session->open_writer(partition_index);
      auto stats = mult_partition(view, table_a, table_b, options, mask,
                                  reduce, per_row, range, writer.get());
      stats.attempts = attempt;
      return stats;
    } catch (const PartitionTimeout& e) {
      GRAPHULO_WARN << "TableMult: " << e.what()
                    << "; degrading to a partial result";
      if (reduce) *reduce = ReduceAcc{};
      TableMultPartitionStats stats;
      if (range.has_start) stats.start_row = range.start.row;
      if (range.has_end) stats.end_row = range.end.row;
      stats.attempts = attempt;
      stats.timed_out = true;
      return stats;
    } catch (const util::TransientError& e) {
      if (attempt > options.max_partition_retries) throw;
      GRAPHULO_WARN << "TableMult: partition [" << range.start.row << ", "
                    << range.end.row << ") attempt " << attempt
                    << " failed (" << e.what() << "); retrying";
    }
  }
}

/// Cuts the row space of `table_a` into up to `workers` contiguous
/// half-open ranges at tablet split points (sampled keys as fallback).
std::vector<nosql::Range> partition_ranges(TableMultDataPlane& plane,
                                           const std::string& table_a,
                                           std::size_t workers) {
  std::vector<nosql::Range> ranges;
  if (workers > 1) {
    const auto bounds = plane.partition_rows(table_a, workers);
    std::string prev;
    for (const auto& b : bounds) {
      ranges.push_back(nosql::Range::half_open_row_range(prev, b));
      prev = b;
    }
    ranges.push_back(nosql::Range::half_open_row_range(prev, ""));
  } else {
    ranges.push_back(nosql::Range::all());
  }
  return ranges;
}

/// Shared driver of table_mult and table_mult_reduce. In write mode
/// (`merged` null) the result lands in `table_c`; in fused-reduce mode
/// the per-partition accumulators are folded into `*merged` at the join
/// barrier and `table_c` is ignored.
TableMultStats run_mult(TableMultDataPlane& plane, const std::string& table_a,
                        const std::string& table_b,
                        const std::string& table_c,
                        const TableMultOptions& options, ReduceAcc* merged,
                        bool per_row) {
  util::Timer timer;
  const bool reduce_mode = merged != nullptr;
  const util::RetryPolicy retry = plane.retry_policy();
  if (!options.mask_table.empty() && !plane.table_exists(options.mask_table)) {
    throw std::invalid_argument("table_mult: mask table '" +
                                options.mask_table + "' does not exist");
  }
  // Setup is retry-safe: ensure_table re-checks existence, and
  // partitioning is a read-only pass over A — both may hit transient
  // (injected) faults that a second attempt clears. C is always a sum
  // table: the partitions pre-combine with the same (+).
  if (!reduce_mode) {
    util::with_retries("TableMult: result table setup", retry, [&] {
      plane.ensure_table(table_c, /*sum_combiner=*/true);
    });
  }

  std::size_t workers = options.num_workers != 0
                            ? options.num_workers
                            : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  // Pin the inputs BEFORE partitioning so the partition boundaries and
  // every worker's scans describe the same cut. The mask (when named)
  // is pinned alongside — the view dedupes aliased tables — so mask, A
  // and B are one consistent view. The view releases at the end of
  // this function (before the optional result compaction, so an
  // in-place product's markers are not retained on its account).
  std::vector<std::string> view_tables{table_a, table_b};
  if (!options.mask_table.empty()) view_tables.push_back(options.mask_table);
  std::unique_ptr<TableMultDataPlane::ReadView> view =
      util::with_retries("TableMult: snapshot open", retry, [&] {
        return plane.open_read_view(view_tables, /*snapshot_isolation=*/true);
      });

  // The mask is loaded once, before the fan-out: one read of M serves
  // every partition (and every retry) as a shared read-only index.
  std::optional<MaskIndex> mask;
  if (!options.mask_table.empty()) {
    mask = util::with_retries("TableMult: mask load", retry, [&] {
      return load_mask(*view, options.mask_table, options.mask_filter);
    });
  }
  const MaskIndex* mask_ptr = mask ? &*mask : nullptr;

  const auto ranges =
      util::with_retries("TableMult: partitioning", retry, [&] {
        return partition_ranges(plane, table_a, workers);
      });

  std::unique_ptr<TableMultDataPlane::WriteSession> session;
  if (!reduce_mode) session = plane.open_write_session(table_c);

  TableMultStats stats;
  stats.partitions.reserve(ranges.size());
  std::vector<ReduceAcc> accs(reduce_mode ? ranges.size() : 0);
  if (ranges.size() == 1) {
    // Serial path: identical order of scans and writes to a single-table
    // run, no pool, no partition boundaries.
    stats.partitions.push_back(run_partition(
        *view, table_a, table_b, options, mask_ptr,
        reduce_mode ? &accs[0] : nullptr, per_row, ranges[0], session.get(),
        0));
  } else {
    util::ThreadPool pool(std::min(workers, ranges.size()));
    std::vector<std::future<TableMultPartitionStats>> futures;
    futures.reserve(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      ReduceAcc* acc = reduce_mode ? &accs[i] : nullptr;
      const nosql::Range& range = ranges[i];
      futures.push_back(pool.submit([&view, &table_a, &table_b, &options,
                                     mask_ptr, acc, per_row, &range, &session,
                                     i] {
        return run_partition(*view, table_a, table_b, options, mask_ptr, acc,
                             per_row, range, session.get(), i);
      }));
    }
    // Flush barrier: join every worker (collecting its counters) before
    // the optional compaction; rethrow the first failure only after all
    // writers have drained.
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        stats.partitions.push_back(f.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }
  for (const auto& p : stats.partitions) {
    stats.rows_joined += p.rows_joined;
    stats.partial_products += p.partial_products;
    stats.partial_products_pruned += p.partial_products_pruned;
    stats.cells_emitted += p.cells_emitted;
    stats.seeks += p.seeks;
    if (p.attempts > 1) ++stats.retried_partitions;
    if (p.timed_out) ++stats.timed_out_partitions;
  }
  if (reduce_mode) {
    // Distinct k-partitions contribute disjoint partial-product sets;
    // ordinary + folds them in any order, same as C's combiner would.
    for (auto& acc : accs) {
      merged->total += acc.total;
      for (auto& [row, v] : acc.rows) merged->rows[row] += v;
    }
  }
  tm_partitions().inc(stats.partitions.size());
  tm_rows_joined().inc(stats.rows_joined);
  tm_partial_products().inc(stats.partial_products);
  tm_cells_emitted().inc(stats.cells_emitted);
  tm_partial_products_pruned().inc(stats.partial_products_pruned);
  if (stats.timed_out_partitions > 0) {
    GRAPHULO_WARN << "TableMult: " << stats.timed_out_partitions << " of "
                  << stats.partitions.size()
                  << " partitions hit the deadline; "
                  << (reduce_mode ? "the reduction" : table_c)
                  << " is missing their contributions";
  }
  // Release the input pins before compacting C: an open snapshot keeps
  // its cut's files and memtables in memory, and when C aliases an
  // input (in-place kernels) the compaction would otherwise leave the
  // files it retires alive beside its output.
  view.reset();
  if (!reduce_mode && options.compact_result) plane.compact(table_c);
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace

TableMultStats table_mult(TableMultDataPlane& plane,
                          const std::string& table_a,
                          const std::string& table_b,
                          const std::string& table_c,
                          const TableMultOptions& options) {
  return run_mult(plane, table_a, table_b, table_c, options, nullptr, false);
}

TableMultStats table_mult(nosql::Instance& db, const std::string& table_a,
                          const std::string& table_b,
                          const std::string& table_c,
                          const TableMultOptions& options) {
  LocalDataPlane plane(db);
  return run_mult(plane, table_a, table_b, table_c, options, nullptr, false);
}

TableMultReduceResult table_mult_reduce(TableMultDataPlane& plane,
                                        const std::string& table_a,
                                        const std::string& table_b,
                                        const TableMultOptions& options,
                                        bool per_row) {
  ReduceAcc merged;
  TableMultReduceResult result;
  result.stats =
      run_mult(plane, table_a, table_b, "", options, &merged, per_row);
  result.total = merged.total;
  result.row_totals = std::move(merged.rows);
  return result;
}

TableMultReduceResult table_mult_reduce(nosql::Instance& db,
                                        const std::string& table_a,
                                        const std::string& table_b,
                                        const TableMultOptions& options,
                                        bool per_row) {
  LocalDataPlane plane(db);
  ReduceAcc merged;
  TableMultReduceResult result;
  result.stats =
      run_mult(plane, table_a, table_b, "", options, &merged, per_row);
  result.total = merged.total;
  result.row_totals = std::move(merged.rows);
  return result;
}

TableMultStats client_side_mult(nosql::Instance& db, const std::string& table_a,
                                const std::string& table_b,
                                const std::string& table_c, la::Index rows,
                                la::Index cols_a, la::Index cols_b) {
  util::Timer timer;
  TableMultStats stats;
  // Full round trip: table -> client matrices -> SpGEMM -> table.
  const auto a = assoc::read_matrix(db, table_a, rows, cols_a);
  const auto b = assoc::read_matrix(db, table_b, rows, cols_b);
  const auto c =
      la::spgemm<la::PlusTimes<double>>(la::transpose(a), b);
  create_sum_table(db, table_c);
  stats.partial_products = static_cast<std::size_t>(c.nnz());
  assoc::write_matrix(db, table_c, c);
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace graphulo::core
