#pragma once
// TableMult: sparse matrix multiply executed INSIDE the database — the
// headline Graphulo operation the paper's Section I-A/IV anticipates
// ("use various Accumulo features, such as the Accumulo iterator
// framework ... and perform batch operations").
//
// Semantics: C(i, j) (+)= sum_k A(k, i) (x) B(k, j), i.e. C += A^T * B,
// where A and B are tables under the D4M matrix convention (row = row
// key, qualifier = column key, value = encoded double). The transpose
// form is forced by the storage: tables are row-sorted, so the only
// cheap join is over the shared ROW dimension k — a row-aligned merge
// join of the two tables' sorted streams (the real Graphulo's
// TwoTableIterator does exactly this). C is a sum table: a (+)-combiner
// attached at scan and compaction scope makes the table itself perform
// the reduction.
//
// Pre-combine (DESIGN.md §7): each partition folds its partial products
// by output cell (i, j) in a partition-local (+)-accumulator of bounded
// size (core/cell_accumulator.hpp, 2 MiB of slots) and sends the folded
// cells through its BatchWriter in key order, one mutation per output
// row, when the join ends or the accumulator fills. The write path thus
// carries one cell per output cell per partition rather than one per
// partial product; C's combiner folds what the partitions send. The
// (x) is options.multiply; the (+) is always addition.
//
// Execution is a partitioned pipeline: the shared row dimension k is cut
// into contiguous row ranges at the tablet split points of A (refined by
// sampled row keys when A is a single tablet), and each partition runs
// the merge join independently on a worker thread with its own pair of
// scans and its own BatchWriter. No cross-worker coordination is needed
// beyond the final flush barrier: distinct k-partitions contribute
// disjoint partial-product SETS, and the (+)-combiner on C is
// commutative and associative, so any interleaving of the concurrent
// writes folds to the same table.
//
// Reads (DESIGN.md §12): the local plane pins A, B and the mask as MVCC
// snapshots before partitioning, so every worker and every retry sees
// the same cut even while other clients write, and an in-place product
// (C == A or C == B) reads its inputs as of the call. The cluster
// plane's cuts are per scan (DESIGN.md §14).
//
// Failure recovery (see DESIGN.md §8): each partition is an
// independently retryable unit. A transient failure — an injected
// fault, a WAL hiccup the lower-level retries could not absorb —
// abandons the attempt's buffered writes and re-runs the partition on
// fresh scans with a fresh writer under the same writer id. The retry
// resends its deterministic mutation stream from the start (the
// accumulator emits in key order, so the stream, spills included,
// repeats exactly) and C skips, by (writer id, seq), every mutation a
// prior attempt applied: exactly-once emission, by the same dedup on
// the local and the cluster plane. An optional per-partition deadline
// turns a hung partition into a warning + stats flag instead of a
// stall.
//
// Masking and fusion (DESIGN.md §13): a structural mask table M gates
// the output — partial products whose (row, qualifier) M does not name
// are dropped inside the merge join, before they reach the accumulator —
// and scan-time row/column filters read derived views (strict upper /
// lower triangles) of the inputs in place. table_mult_reduce() fuses
// the final reduction: the same join folds partial products into a
// per-partition scalar (or per-row) accumulator instead of the per-cell
// one, and the call returns without C ever existing. Together these
// make sum(L .* (L·U)) triangle counting a single pass that
// materializes nothing.
//
// The client-side baseline (read A and B out, SpGEMM locally, write C
// back) is provided for the bench_tablemult ablation.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/data_plane.hpp"
#include "core/table_scan.hpp"
#include "la/spmat.hpp"
#include "nosql/instance.hpp"

namespace graphulo::core {

/// Options for table_mult().
struct TableMultOptions {
  /// The (x) of the semiring; defaults to ordinary multiplication. The
  /// (+) is always addition: partitions pre-sum their products, and C
  /// is created as a sum table (sum_table_config) when missing.
  std::function<double(double, double)> multiply =
      [](double a, double b) { return a * b; };
  /// Compact C after the multiply so the partial products are physically
  /// collapsed (otherwise they collapse lazily at scan/compaction time).
  bool compact_result = false;
  /// Worker threads for the partitioned pipeline; 0 = hardware
  /// concurrency. With 1 worker the multiply runs inline on the calling
  /// thread over a single all-rows partition — the serial path.
  std::size_t num_workers = 0;
  /// A partition whose attempt fails transiently (injected fault, I/O
  /// error surviving the lower-level retries) is re-run this many times
  /// on fresh scans + a fresh writer. Re-runs are exactly-once: the
  /// retry resends the partition's deterministic mutation stream under
  /// the partition's writer id, and C skips every mutation of it an
  /// earlier attempt applied, so no partial product is written twice.
  std::size_t max_partition_retries = 2;
  /// Wall-clock budget per partition attempt; zero = unlimited. A
  /// partition that exceeds it aborts cooperatively and is reported as
  /// timed out (a warning + TableMultStats::timed_out_partitions)
  /// instead of stalling the whole multiply. C is then missing some or
  /// all of that partition's contribution: the attempt may already have
  /// applied part of its stream (an accumulator spill, a BatchWriter
  /// auto-flush). Callers opting into deadlines trade completeness for
  /// bounded latency.
  std::chrono::milliseconds partition_deadline{0};
  /// Structural mask (GraphBLAS C<M>): when non-empty, names a table M
  /// whose stored (row, qualifier) set gates the output. A partial
  /// product destined for C(i, j) is dropped inside the merge join —
  /// before it reaches the BatchWriter — unless (i, j) is stored in M
  /// (values are ignored; presence is the mask). M is read once, up
  /// front, through the same pinned-snapshot discipline as A and B
  /// (aliasing A or B reuses their snapshot), so the mask is a
  /// consistent cut too. Drops are counted per partition and in the
  /// tablemult.partial_products_pruned.total metric.
  std::string mask_table{};
  /// Invert the mask: keep partial products whose (i, j) is ABSENT from
  /// M (GraphBLAS complemented structural mask).
  bool complement_mask = false;
  /// Applied to M's cells while the mask is loaded: only cells the
  /// predicate keeps participate. With strict_lower_filter() the
  /// adjacency table itself serves as the L mask of the triangle
  /// kernel — no L table is ever written.
  CellPredicate mask_filter{};
  /// Scan-time filter on A's cells (k = row, i = qualifier); dropped
  /// cells are treated as absent from A, so e.g. strict_upper_filter()
  /// reads A as its strict upper triangle U in place. Filtering runs in
  /// the RowReader while rows are assembled — filtered cells never
  /// reach the join. Because A's qualifiers become C's rows, this is
  /// the output ROW filter.
  CellPredicate row_filter{};
  /// Same for B's cells (k = row, j = qualifier): the output COLUMN
  /// filter.
  CellPredicate col_filter{};
};

/// Per-partition counters from one table_mult() worker.
struct TableMultPartitionStats {
  std::string start_row;              ///< partition range ["start", "end")
  std::string end_row;                ///< empty = unbounded on that side
  std::size_t rows_joined = 0;        ///< shared row keys in this range
  std::size_t partial_products = 0;   ///< products computed (survived the mask)
  std::size_t partial_products_pruned = 0;  ///< dropped by the mask
  std::size_t cells_emitted = 0;      ///< pre-combined cells sent to C
  std::size_t seeks = 0;              ///< advance_to() seeks on A + B
  double scan_seconds = 0.0;          ///< reading/aligning the two streams
  double emit_seconds = 0.0;          ///< folding plus emission
  double flush_seconds = 0.0;         ///< final BatchWriter flush
  double seconds = 0.0;               ///< wall time of the whole partition
  std::size_t attempts = 1;           ///< 1 = no retries were needed
  bool timed_out = false;             ///< gave up at the deadline
};

/// Statistics from one table_mult() run. Totals are the sums over
/// `partitions`, aggregated at join time.
struct TableMultStats {
  std::size_t rows_joined = 0;        ///< shared row keys of A and B
  std::size_t partial_products = 0;   ///< products computed (survived the mask)
  std::size_t partial_products_pruned = 0;  ///< dropped by the mask
  std::size_t cells_emitted = 0;      ///< pre-combined cells sent to C
  std::size_t seeks = 0;              ///< merge-join seeks on A + B
  double seconds = 0.0;               ///< wall time (partitions overlap)
  std::size_t retried_partitions = 0;   ///< partitions needing > 1 attempt
  std::size_t timed_out_partitions = 0; ///< partitions lost to the deadline
  std::vector<TableMultPartitionStats> partitions;
};

/// C += A^T * B, all three named tables of `db`. Creates C as a sum
/// table (sum_table_config) when missing; an existing C must be one,
/// else std::invalid_argument. Returns run statistics.
TableMultStats table_mult(nosql::Instance& db, const std::string& table_a,
                          const std::string& table_b,
                          const std::string& table_c,
                          const TableMultOptions& options = {});

/// Same kernel against an arbitrary data plane: the local overload
/// above wraps `db` in a LocalDataPlane and calls this;
/// distributed::table_mult passes a ClusterDataPlane so the partition
/// workers scan and write across tablet-server processes.
TableMultStats table_mult(TableMultDataPlane& plane,
                          const std::string& table_a,
                          const std::string& table_b,
                          const std::string& table_c,
                          const TableMultOptions& options = {});

/// Result of the fused multiply-reduce.
struct TableMultReduceResult {
  /// sum of every surviving partial product A(k,i) (x) B(k,j) — exactly
  /// the scalar sum(C) a table_mult + table_sum round trip would
  /// produce, without C ever existing.
  double total = 0.0;
  /// Per-output-row sums keyed by C's row key i (only filled when
  /// table_mult_reduce is called with per_row = true).
  std::map<std::string, double> row_totals;
  TableMultStats stats;
};

/// Fused reduce variant: runs the same masked/filtered partitioned
/// merge join as table_mult(), but folds each surviving partial product
/// into a scalar (or per-row) (+)-accumulator per partition instead of
/// the per-cell one, and folds the partition accumulators at the join
/// barrier. No result table is created, written, or compacted —
/// `options.compact_result` is ignored. The (+) is ordinary addition,
/// matching the summing combiner table_mult() attaches to C;
/// `options.multiply` is still the (x).
/// Retried partitions restart with a fresh accumulator (no durable
/// state), so the exactly-once machinery is unnecessary here. This is
/// the kernel shape of masked triangle counting: sum(L .* (L·U)) in one
/// pass with nothing materialized.
TableMultReduceResult table_mult_reduce(nosql::Instance& db,
                                        const std::string& table_a,
                                        const std::string& table_b,
                                        const TableMultOptions& options = {},
                                        bool per_row = false);

/// Fused reduce against an arbitrary data plane (see table_mult
/// overload above).
TableMultReduceResult table_mult_reduce(TableMultDataPlane& plane,
                                        const std::string& table_a,
                                        const std::string& table_b,
                                        const TableMultOptions& options = {},
                                        bool per_row = false);

/// Client-side baseline: scans A and B into local sparse matrices of
/// shape (`rows` x `cols_a`) / (`rows` x `cols_b`), multiplies with
/// SpGEMM, writes the full result back to C. Matches table_mult()'s
/// output exactly; exists to quantify the round-trip the server-side
/// path avoids.
TableMultStats client_side_mult(nosql::Instance& db, const std::string& table_a,
                                const std::string& table_b,
                                const std::string& table_c, la::Index rows,
                                la::Index cols_a, la::Index cols_b);

/// The TableMult result-sink config: versioning off, summing combiner
/// at every scope. Exposed so recovery paths (graphulo_tsd's preset
/// provider) can recreate sum tables with the exact config
/// create_sum_table uses — iterator settings are code, not data.
nosql::TableConfig sum_table_config();

/// Whether `cfg` is sum_table_config's: versioning off and its summing
/// combiner attached at every scope.
bool is_sum_table_config(const nosql::TableConfig& cfg);

/// Creates `table` configured as a TableMult result sink (see
/// sum_table_config). No-op if it already exists as one; throws
/// std::invalid_argument if it exists with another config.
void create_sum_table(nosql::Instance& db, const std::string& table);

}  // namespace graphulo::core
