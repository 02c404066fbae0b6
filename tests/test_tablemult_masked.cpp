// Masked / filtered / fused TableMult (DESIGN.md §13), checked against
// the in-memory kernels: table_mult with a mask table must match
// la::spgemm_masked on the transposed left operand, scan-time
// row/column filters must match pre-multiplying by la::triu / la::tril,
// and the fused table_mult_reduce must return the sums a
// table_mult + scan round trip would produce — without creating C.

#include <cmath>
#include <cstdint>
#include <map>

#include <gtest/gtest.h>

#include "assoc/table_io.hpp"
#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace graphulo::core {
namespace {

using assoc::read_matrix;
using assoc::write_matrix;
using graphulo::testing::random_sparse_int;
using graphulo::testing::random_undirected;
using la::SpMat;

double matrix_sum(const SpMat<double>& m) {
  return la::reduce_all(m, [](double x, double y) { return x + y; });
}

TEST(MaskedTableMult, MatchesSpgemmMaskedOracle) {
  // C = A^T * B gated by M's stored cells, vs the in-memory masked
  // SpGEMM on the same operands.
  const auto a = random_sparse_int(18, 14, 0.3, 101);
  const auto b = random_sparse_int(18, 16, 0.3, 102);
  const auto mask = random_sparse_int(14, 16, 0.25, 103);
  nosql::Instance db(1);
  write_matrix(db, "A", a);
  write_matrix(db, "B", b);
  write_matrix(db, "M", mask);

  TableMultOptions options;
  options.compact_result = true;
  options.mask_table = "M";
  const auto stats = table_mult(db, "A", "B", "C", options);
  const auto c = read_matrix(db, "C", 14, 16);

  const auto oracle = la::spgemm_masked<la::PlusTimes<double>>(
      la::transpose(a), b, mask);
  EXPECT_EQ(c, oracle);

  // The mask partitions the unmasked emission count exactly.
  const auto unmasked = table_mult(db, "A", "B", "Cfull");
  EXPECT_EQ(stats.partial_products + stats.partial_products_pruned,
            unmasked.partial_products);
  EXPECT_GT(stats.partial_products_pruned, 0u);
}

TEST(MaskedTableMult, ComplementMaskMatchesComplementOracle) {
  const auto a = random_sparse_int(15, 12, 0.3, 104);
  const auto b = random_sparse_int(15, 13, 0.3, 105);
  const auto mask = random_sparse_int(12, 13, 0.3, 106);
  nosql::Instance db(1);
  write_matrix(db, "A", a);
  write_matrix(db, "B", b);
  write_matrix(db, "M", mask);

  TableMultOptions options;
  options.compact_result = true;
  options.mask_table = "M";
  options.complement_mask = true;
  table_mult(db, "A", "B", "C", options);
  const auto c = read_matrix(db, "C", 12, 13);

  const auto oracle = la::spgemm_masked<la::PlusTimes<double>>(
      la::transpose(a), b, mask, /*complement_mask=*/true);
  EXPECT_EQ(c, oracle);
}

TEST(MaskedTableMult, MissingMaskTableThrows) {
  nosql::Instance db(1);
  write_matrix(db, "A", random_sparse_int(4, 4, 0.5, 107));
  TableMultOptions options;
  options.mask_table = "NoSuchTable";
  EXPECT_THROW(table_mult(db, "A", "A", "C", options), std::invalid_argument);
  EXPECT_THROW(table_mult_reduce(db, "A", "A", options), std::invalid_argument);
}

TEST(MaskedTableMult, RowAndColFiltersReadTrianglesInPlace) {
  // row_filter = strict upper on A reads A as triu(A); col_filter =
  // strict lower on B reads B as tril(B). The product must equal the
  // oracle built from the pre-sliced matrices — no L/U tables needed.
  const auto a = random_sparse_int(16, 16, 0.35, 108);
  const auto b = random_sparse_int(16, 16, 0.35, 109);
  nosql::Instance db(1);
  write_matrix(db, "A", a);
  write_matrix(db, "B", b);

  TableMultOptions options;
  options.compact_result = true;
  options.row_filter = strict_upper_filter();
  options.col_filter = strict_lower_filter();
  table_mult(db, "A", "B", "C", options);
  const auto c = read_matrix(db, "C", 16, 16);

  const auto oracle = la::spgemm<la::PlusTimes<double>>(
      la::transpose(la::triu(a)), la::tril(b));
  EXPECT_EQ(c, oracle);
}

TEST(MaskedTableMult, MaskFilterRestrictsTheMaskWhileLoading) {
  // Mask = strict lower triangle of the symmetric adjacency itself:
  // the filter slices L out of A at mask-load time.
  const auto a = random_undirected(14, 0.4, 110);
  nosql::Instance db(1);
  write_matrix(db, "A", a);

  TableMultOptions options;
  options.compact_result = true;
  options.mask_table = "A";
  options.mask_filter = strict_lower_filter();
  table_mult(db, "A", "A", "C", options);
  const auto c = read_matrix(db, "C", 14, 14);

  const auto oracle = la::spgemm_masked<la::PlusTimes<double>>(
      la::transpose(a), a, la::tril(a));
  EXPECT_EQ(c, oracle);
}

TEST(FusedReduce, TotalMatchesMaterializedSum) {
  const auto a = random_sparse_int(20, 15, 0.3, 111);
  const auto b = random_sparse_int(20, 17, 0.3, 112);
  nosql::Instance db(1);
  write_matrix(db, "A", a);
  write_matrix(db, "B", b);

  const auto reduced = table_mult_reduce(db, "A", "B");
  table_mult(db, "A", "B", "C", {.compact_result = true});
  const auto c = read_matrix(db, "C", 15, 17);
  // Small-integer values: both sums are exact.
  EXPECT_EQ(reduced.total, matrix_sum(c));
  EXPECT_GT(reduced.stats.partial_products, 0u);
}

TEST(FusedReduce, PerRowTotalsMatchRowSums) {
  const auto a = random_sparse_int(12, 10, 0.4, 113);
  const auto b = random_sparse_int(12, 11, 0.4, 114);
  nosql::Instance db(1);
  write_matrix(db, "A", a);
  write_matrix(db, "B", b);

  const auto reduced = table_mult_reduce(db, "A", "B", {}, /*per_row=*/true);
  table_mult(db, "A", "B", "C", {.compact_result = true});
  const auto c = read_matrix(db, "C", 10, 11);

  std::map<std::string, double> expected;
  for (const auto& t : c.to_triples()) {
    expected[assoc::vertex_key(t.row)] += t.val;
  }
  EXPECT_EQ(reduced.row_totals, expected);
}

TEST(FusedReduce, MaskedReduceMatchesOracleAndCountsPrunes) {
  const auto a = random_undirected(16, 0.4, 115);
  nosql::Instance db(1);
  write_matrix(db, "A", a);

  auto& pruned_counter = obs::MetricsRegistry::global().counter(
      "tablemult.partial_products_pruned.total");
  const auto pruned_before = pruned_counter.value();

  TableMultOptions options;
  options.mask_table = "A";
  const auto reduced = table_mult_reduce(db, "A", "A", options);

  const auto oracle = la::spgemm_masked<la::PlusTimes<double>>(
      la::transpose(a), a, a);
  EXPECT_EQ(reduced.total, matrix_sum(oracle));
  EXPECT_GT(reduced.stats.partial_products_pruned, 0u);
  EXPECT_EQ(pruned_counter.value() - pruned_before,
            reduced.stats.partial_products_pruned);
}

TEST(MaskedTableMult, MultiWorkerMaskedPropertyOnRmat) {
  // Property test across seeds: the masked multiply over a partitioned
  // multi-worker run equals both the serial run and the in-memory
  // masked-SpGEMM oracle; triangle-style filters included.
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    gen::RmatParams p;
    p.scale = 6;
    p.edge_factor = 5;
    p.seed = seed;
    const auto a = gen::rmat_simple_adjacency(p);

    constexpr int kTablets = 4;
    nosql::Instance db(kTablets);
    write_matrix(db, "A", a);
    std::vector<std::string> splits;
    for (int s = 1; s < kTablets; ++s) {
      splits.push_back(assoc::vertex_key(a.rows() * s / kTablets));
    }
    db.add_splits("A", splits);

    TableMultOptions options;
    options.compact_result = true;
    options.mask_table = "A";
    options.mask_filter = strict_lower_filter();
    options.row_filter = strict_upper_filter();
    options.col_filter = strict_upper_filter();

    auto serial = options;
    serial.num_workers = 1;
    const auto serial_stats = table_mult(db, "A", "A", "Cserial", serial);
    auto parallel = options;
    parallel.num_workers = 4;
    const auto parallel_stats = table_mult(db, "A", "A", "Cpar", parallel);

    const auto cs = read_matrix(db, "Cserial", a.cols(), a.cols());
    const auto cp = read_matrix(db, "Cpar", a.cols(), a.cols());
    const auto u = la::triu(a);
    const auto oracle = la::spgemm_masked<la::PlusTimes<double>>(
        la::transpose(u), u, la::tril(a));
    EXPECT_EQ(cs, oracle) << "seed " << seed;
    EXPECT_EQ(cp, oracle) << "seed " << seed;
    // Pre-combining under mask and filters: one unspilled partition
    // sends each surviving output cell once; more partitions may send a
    // cell once each, never more often than its products.
    EXPECT_EQ(serial_stats.cells_emitted,
              static_cast<std::size_t>(oracle.nnz())) << "seed " << seed;
    EXPECT_LE(parallel_stats.cells_emitted, parallel_stats.partial_products)
        << "seed " << seed;
    EXPECT_GE(parallel_stats.cells_emitted,
              static_cast<std::size_t>(oracle.nnz())) << "seed " << seed;

    // The fused reduce of the same masked product is the triangle count.
    const auto reduced = table_mult_reduce(db, "A", "A", options);
    EXPECT_EQ(reduced.total, matrix_sum(oracle)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace graphulo::core
