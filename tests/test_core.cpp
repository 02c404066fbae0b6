// Graphulo core: table I/O, server-side TableMult vs local SpGEMM,
// table-scope kernels, and the table-level graph algorithms.

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "assoc/table_io.hpp"
#include "core/cell_accumulator.hpp"
#include "core/table_algos.hpp"
#include "core/table_ops.hpp"
#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "gen/erdos.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "nosql/codec.hpp"
#include "nosql/combiner.hpp"
#include "nosql/scanner.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace graphulo::core {
namespace {

using assoc::read_matrix;
using assoc::write_matrix;
using graphulo::testing::paper_example_adjacency;
using graphulo::testing::random_sparse_int;

TEST(TableIO, MatrixRoundTrip) {
  nosql::Instance db(2);
  auto m = random_sparse_int(20, 15, 0.25, 201);
  write_matrix(db, "m", m);
  EXPECT_EQ(read_matrix(db, "m", 20, 15), m);
}

TEST(TableIO, AssocRoundTrip) {
  nosql::Instance db;
  auto a = assoc::AssocArray::from_entries(
      {{"alice", "bob", 1.5}, {"bob", "carol", -2.0}});
  assoc::write_assoc(db, "t", a);
  EXPECT_EQ(assoc::read_assoc(db, "t"), a);
}

TEST(TableIO, VertexKeyOrderMatchesNumericOrder) {
  EXPECT_LT(assoc::vertex_key(9), assoc::vertex_key(10));
  EXPECT_LT(assoc::vertex_key(99), assoc::vertex_key(100));
  EXPECT_EQ(assoc::parse_vertex_key(assoc::vertex_key(1234)), 1234);
  EXPECT_EQ(assoc::parse_vertex_key("garbage"), -1);
  EXPECT_EQ(assoc::parse_vertex_key("v|12x4"), -1);
}

TEST(TableScan, RowReaderGroupsRows) {
  nosql::Instance db;
  db.create_table("t");
  for (const char* row : {"a", "a", "b"}) {
    static int q = 0;
    nosql::Mutation m(row);
    std::string qual = "q";
    qual += std::to_string(q++);  // built in steps: GCC 12 -Wrestrict FP
    m.put("f", std::move(qual), "v");
    db.apply("t", m);
  }
  RowReader reader(open_table_scan(db, "t"));
  ASSERT_TRUE(reader.has_next());
  auto block = reader.next_row();
  EXPECT_EQ(block.row, "a");
  EXPECT_EQ(block.cells.size(), 2u);
  block = reader.next_row();
  EXPECT_EQ(block.row, "b");
  EXPECT_EQ(block.cells.size(), 1u);
  EXPECT_FALSE(reader.has_next());
}

// Counts the seek()/next() traffic RowReader sends down the stack.
class CountingIterator : public nosql::WrappingIterator {
 public:
  CountingIterator(nosql::IterPtr source, std::size_t* seeks,
                   std::size_t* nexts)
      : WrappingIterator(std::move(source)), seeks_(seeks), nexts_(nexts) {}

  void seek(const nosql::Range& range) override {
    ++*seeks_;
    WrappingIterator::seek(range);
  }
  void next() override {
    ++*nexts_;
    WrappingIterator::next();
  }

 private:
  std::size_t* seeks_;
  std::size_t* nexts_;
};

TEST(TableScan, AdvanceToSeeksInsteadOfDraining) {
  nosql::Instance db;
  db.create_table("t");
  constexpr std::uint64_t kRows = 200;
  for (std::uint64_t i = 0; i < kRows; ++i) {
    std::string row = "r";  // built in steps: GCC 12 -Wrestrict FP
    row += util::zero_pad(i, 3);
    nosql::Mutation m(std::move(row));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  std::size_t seeks = 0, nexts = 0;
  auto counting = std::make_unique<CountingIterator>(
      open_table_scan(db, "t"), &seeks, &nexts);
  // Small read-ahead so the skip target lies beyond the buffered block
  // and must go through the stack.
  RowReader reader(std::move(counting), nosql::Range::all(),
                   /*block_size=*/8);
  EXPECT_EQ(reader.next_row().row, "r000");
  const std::size_t nexts_before = nexts;
  reader.advance_to("r150");
  // The skip must be one seek on the stack, not a next() drain across
  // the 149 skipped rows.
  EXPECT_EQ(seeks, 1u);
  EXPECT_EQ(nexts, nexts_before);
  EXPECT_EQ(reader.seeks_performed(), 1u);
  ASSERT_TRUE(reader.has_next());
  EXPECT_EQ(reader.next_row().row, "r150");
  // Targets at or behind the current position are no-ops, never a
  // backwards seek (rows already passed stay passed).
  reader.advance_to("r100");
  EXPECT_EQ(seeks, 1u);
  EXPECT_EQ(reader.next_row().row, "r151");
  // A target inside the read-ahead block is skipped in place: no stack
  // seek, but the reader still lands on the first row >= target.
  reader.advance_to("r154");
  EXPECT_EQ(seeks, 1u);
  EXPECT_EQ(reader.seeks_performed(), 1u);
  EXPECT_EQ(reader.next_row().row, "r154");
}

TEST(TableScan, AdvanceToRespectsScanEndBound) {
  nosql::Instance db;
  db.create_table("t");
  for (std::uint64_t i = 0; i < 100; ++i) {
    std::string row = "r";
    row += util::zero_pad(i, 3);
    nosql::Mutation m(std::move(row));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  const auto range = nosql::Range::half_open_row_range("r010", "r050");
  RowReader reader(open_table_scan(db, "t", range), range);
  EXPECT_EQ(reader.next_row().row, "r010");
  // Seeking forward must keep the partition's end bound: a target past
  // the end exhausts the reader instead of spilling into [r050, ...).
  reader.advance_to("r060");
  EXPECT_FALSE(reader.has_next());
}

TEST(TableMult, MatchesLocalSpGemmTransposeProduct) {
  nosql::Instance db(2);
  auto a = random_sparse_int(12, 10, 0.3, 202);
  auto b = random_sparse_int(12, 9, 0.3, 203);
  write_matrix(db, "A", a);
  write_matrix(db, "B", b);
  const auto stats = table_mult(db, "A", "B", "C");
  EXPECT_GT(stats.partial_products, 0u);
  const auto expected =
      la::spgemm<la::PlusTimes<double>>(la::transpose(a), b);
  EXPECT_EQ(read_matrix(db, "C", 10, 9), expected);
}

TEST(TableMult, AccumulatesIntoExistingResult) {
  // Two multiplies into the same sink: C = A1^T B + A2^T B.
  nosql::Instance db;
  auto a1 = random_sparse_int(8, 6, 0.4, 204);
  auto a2 = random_sparse_int(8, 6, 0.4, 205);
  auto b = random_sparse_int(8, 7, 0.4, 206);
  write_matrix(db, "A1", a1);
  write_matrix(db, "A2", a2);
  write_matrix(db, "B", b);
  table_mult(db, "A1", "B", "C");
  table_mult(db, "A2", "B", "C");
  const auto expected = la::add(
      la::spgemm<la::PlusTimes<double>>(la::transpose(a1), b),
      la::spgemm<la::PlusTimes<double>>(la::transpose(a2), b));
  EXPECT_EQ(read_matrix(db, "C", 6, 7), expected);
}

TEST(TableMult, RejectsExistingResultWithoutSumCombiner) {
  // Partitions pre-sum with +, so a C folding with anything else (here
  // a tropical min-combiner) would silently get wrong values.
  nosql::Instance db;
  auto a = random_sparse_int(8, 6, 0.4, 208);
  write_matrix(db, "A", a);
  nosql::TableConfig min_cfg;
  min_cfg.versioning = false;
  min_cfg.attach_iterator({10, "min-combiner", nosql::kAllScopes,
                           [](nosql::IterPtr src) {
                             return std::make_unique<nosql::CombinerIterator>(
                                 std::move(src), nosql::min_double_reducer());
                           }});
  db.create_table("Cmin", min_cfg);
  EXPECT_THROW(table_mult(db, "A", "A", "Cmin"), std::invalid_argument);
  db.create_table("Cplain");
  EXPECT_THROW(table_mult(db, "A", "A", "Cplain"), std::invalid_argument);
}

TEST(TableMult, CompactionCollapsesPartialProducts) {
  nosql::Instance db;
  auto a = random_sparse_int(10, 8, 0.5, 207);
  write_matrix(db, "A", a);
  const auto stats =
      table_mult(db, "A", "A", "C", {.compact_result = true});
  const auto expected =
      la::spgemm<la::PlusTimes<double>>(la::transpose(a), a);
  // After compaction, the physical entry count equals the logical nnz:
  // the combiner folded the partial products on disk.
  EXPECT_GE(stats.partial_products, static_cast<std::size_t>(expected.nnz()));
  EXPECT_EQ(db.entry_estimate("C"), static_cast<std::size_t>(expected.nnz()));
  EXPECT_EQ(read_matrix(db, "C", 8, 8), expected);
}

TEST(TableMult, CustomMultiplyOp) {
  // min-multiply with sum-combine: counts handled by options.multiply.
  nosql::Instance db;
  auto a = random_sparse_int(6, 5, 0.5, 208, 3);
  write_matrix(db, "A", a);
  TableMultOptions opts;
  opts.multiply = [](double x, double y) { return std::min(x, y); };
  table_mult(db, "A", "A", "C", opts);
  // Reference: C(i,j) = sum_k min(A(k,i), A(k,j)).
  const auto ad = a.to_dense();
  const auto c = read_matrix(db, "C", 5, 5);
  for (la::Index i = 0; i < 5; ++i) {
    for (la::Index j = 0; j < 5; ++j) {
      double ref = 0;
      for (la::Index k = 0; k < 6; ++k) {
        const double x = ad[static_cast<std::size_t>(k) * 5 + i];
        const double y = ad[static_cast<std::size_t>(k) * 5 + j];
        if (x != 0 && y != 0) ref += std::min(x, y);
      }
      EXPECT_DOUBLE_EQ(c.at(i, j), ref) << i << "," << j;
    }
  }
}

TEST(TableMult, ClientSideBaselineAgrees) {
  nosql::Instance db;
  auto a = random_sparse_int(10, 8, 0.3, 209);
  auto b = random_sparse_int(10, 7, 0.3, 210);
  write_matrix(db, "A", a);
  write_matrix(db, "B", b);
  table_mult(db, "A", "B", "Cserver");
  client_side_mult(db, "A", "B", "Cclient", 10, 8, 7);
  EXPECT_EQ(read_matrix(db, "Cserver", 8, 7), read_matrix(db, "Cclient", 8, 7));
}

// Drains a table into (row, family, qualifier, decoded value) tuples —
// the physical cells, for exact comparisons after compaction.
std::vector<std::tuple<std::string, std::string, std::string, double>>
read_cells(nosql::Instance& db, const std::string& table) {
  std::vector<std::tuple<std::string, std::string, std::string, double>> out;
  nosql::Scanner scan(db, table);
  scan.for_each([&out](const nosql::Key& k, const nosql::Value& v) {
    const auto d = nosql::decode_double(v);
    ASSERT_TRUE(d.has_value()) << k.to_string();
    out.emplace_back(k.row, k.family, k.qualifier, *d);
  });
  return out;
}

TEST(TableMult, MultithreadedMatchesClientSideOnRmat) {
  gen::RmatParams p;
  p.scale = 7;
  p.edge_factor = 6;
  const auto a = gen::rmat_simple_adjacency(p);
  // tablets=1 exercises the sampled-boundary fallback (no split points);
  // tablets=4 exercises tablet-derived partitions.
  for (int tablets : {1, 4}) {
    nosql::Instance db(tablets);
    assoc::write_matrix(db, "A", a);
    if (tablets > 1) {
      std::vector<std::string> splits;
      for (int s = 1; s < tablets; ++s) {
        splits.push_back(assoc::vertex_key(a.rows() * s / tablets));
      }
      db.add_splits("A", splits);
    }
    const auto stats = table_mult(
        db, "A", "A", "Cs", {.compact_result = true, .num_workers = 4});
    EXPECT_GE(stats.partitions.size(), 2u) << "tablets=" << tablets;
    client_side_mult(db, "A", "A", "Cc", a.rows(), a.cols(), a.cols());
    db.compact("Cc");
    // Exact cell-by-cell agreement of the physical tables. Inputs are
    // 0/1 adjacency, so every partial-product sum is a small integer and
    // floating-point addition order cannot perturb it.
    const auto server = read_cells(db, "Cs");
    const auto client = read_cells(db, "Cc");
    EXPECT_GT(server.size(), 0u);
    EXPECT_EQ(server, client) << "tablets=" << tablets;
    // Pre-combining: every output cell is sent at least once (by each
    // partition that contributes to it), never more often than its
    // partial products.
    EXPECT_LE(stats.cells_emitted, stats.partial_products);
    EXPECT_GE(stats.cells_emitted, server.size());
  }
}

TEST(TableMult, WorkerCountDoesNotChangeResult) {
  // 1-worker (serial path) vs 4-worker pipeline: identical tables.
  auto a = random_sparse_int(30, 25, 0.2, 212);
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    nosql::Instance db(2);
    write_matrix(db, "A", a);
    const auto stats = table_mult(db, "A", "A", "C",
                                  {.compact_result = true,
                                   .num_workers = workers});
    EXPECT_GT(stats.rows_joined, 0u);
    const auto expected =
        la::spgemm<la::PlusTimes<double>>(la::transpose(a), a);
    EXPECT_EQ(read_matrix(db, "C", 25, 25), expected) << workers;
    EXPECT_LE(stats.cells_emitted, stats.partial_products);
    // One partition that never fills its accumulator sends each output
    // cell exactly once.
    if (workers == 1) {
      EXPECT_EQ(stats.cells_emitted, static_cast<std::size_t>(expected.nnz()));
    }
  }
}

TEST(TableMult, SpillingPartitionMatchesSpgemm) {
  // One partition over RMAT scale 10: about 203K distinct output cells,
  // more than one accumulator's slot budget holds, so it drains mid-join
  // and C receives some cells more than once for the combiner to fold.
  gen::RmatParams p;
  p.scale = 10;
  p.edge_factor = 6;
  const auto a = gen::rmat_simple_adjacency(p);
  nosql::Instance db;
  assoc::write_matrix(db, "A", a);
  const auto stats =
      table_mult(db, "A", "A", "C", {.compact_result = true, .num_workers = 1});
  const auto expected = la::spgemm<la::PlusTimes<double>>(la::transpose(a), a);
  ASSERT_GT(static_cast<std::size_t>(expected.nnz()),
            CellAccumulator::kMaxSlots);
  EXPECT_GT(stats.cells_emitted, static_cast<std::size_t>(expected.nnz()));
  EXPECT_LT(stats.cells_emitted, stats.partial_products);
  EXPECT_EQ(read_matrix(db, "C", a.cols(), a.cols()), expected);
}

TEST(CellAccumulator, SpillsRunsInKeyOrderThatFoldLikeAMap) {
  using CellKey = std::tuple<std::string, std::string, std::string>;
  const std::vector<std::string> rows{"r3", "r1", "r4", "r0", "r2", "r5"};
  const std::vector<std::string> families{"", "f"};
  const std::vector<std::string> columns{"c2", "c0", "c4", "c1", "c3"};
  util::Xoshiro256 rng(17);

  std::map<CellKey, double> reference;
  std::vector<std::vector<std::pair<CellKey, double>>> runs;
  std::vector<std::pair<CellKey, double>> emitted;  // the open run
  std::vector<std::string> emitted_rows;            // its mutation rows
  CellAccumulator acc(
      [&](nosql::Mutation m) {
        emitted_rows.push_back(m.row());
        for (const auto& u : m.updates()) {
          const auto v = nosql::decode_double(u.value);
          ASSERT_TRUE(v.has_value());
          emitted.push_back({{m.row(), u.family, u.qualifier}, *v});
        }
      },
      8);
  const auto close_run = [&] {
    // One mutation per output row: rows strictly increase within a run.
    for (std::size_t i = 1; i < emitted_rows.size(); ++i) {
      EXPECT_LT(emitted_rows[i - 1], emitted_rows[i]);
    }
    runs.push_back(std::move(emitted));
    emitted.clear();
    emitted_rows.clear();
  };

  for (int n = 0; n < 400; ++n) {
    const auto& row = rows[rng.uniform_int(rows.size())];
    const auto& family = families[rng.uniform_int(families.size())];
    const auto& column = columns[rng.uniform_int(columns.size())];
    const double value = static_cast<double>(1 + rng.uniform_int(5));
    reference[{row, family, column}] += value;
    const std::size_t held = acc.size();
    acc.add(acc.row_id(row, family), acc.column_id(column), value);
    if (!emitted.empty()) {
      // A new cell met a full table: the add drained it first.
      EXPECT_EQ(held, 6u);  // 3/4 of 8 slots
      EXPECT_EQ(acc.size(), 1u);
      close_run();
    }
  }
  acc.drain();
  EXPECT_EQ(acc.size(), 0u);
  close_run();
  ASSERT_GT(runs.size(), 2u);  // the budget forced early drains

  std::map<CellKey, double> folded;
  for (const auto& run : runs) {
    EXPECT_LE(run.size(), 6u);
    for (std::size_t i = 1; i < run.size(); ++i) {
      EXPECT_LT(run[i - 1].first, run[i].first);  // key order, no repeats
    }
    for (const auto& [key, v] : run) folded[key] += v;
  }
  EXPECT_EQ(folded, reference);

  EXPECT_THROW(CellAccumulator([](nosql::Mutation) {}, 6),
               std::invalid_argument);
}

TEST(TableOps, ApplyRewritesValuesInPlace) {
  nosql::Instance db;
  auto a = random_sparse_int(8, 8, 0.4, 211);
  write_matrix(db, "A", a);
  table_apply(db, "A", [](double v) { return v * v; });
  const auto expected = la::apply(a, [](double v) { return v * v; });
  EXPECT_EQ(read_matrix(db, "A", 8, 8), expected);
}

TEST(TableOps, ApplyRewritesEachTabletOnce) {
  nosql::Instance db;
  db.create_table("A");
  db.add_splits("A", {"m"});
  for (const char* row : {"a", "b", "n", "z"}) {
    nosql::Mutation m(row);
    m.put("f", "q", nosql::encode_double(2.0));
    m.put("f", "label", "text");  // non-numeric: passes through
    db.apply("A", m);
  }
  const auto tablets = db.tablets_for_range("A", nosql::Range::all());
  const auto majors = [&] {
    std::size_t n = 0;
    for (const auto& [tablet, sid] : tablets) {
      n += tablet->stats().major_compactions;
    }
    return n;
  };
  const std::size_t before = majors();
  table_apply(db, "A", [](double v) { return v - 2.0; });
  // One rewrite per tablet: the transform and the zero pruning share a
  // compaction.
  EXPECT_EQ(majors() - before, tablets.size());
  // Every numeric value became 0 and was pruned; the labels remain.
  EXPECT_EQ(db.entry_estimate("A"), 4u);
}

TEST(TableOps, ScaleAndZeroPruning) {
  nosql::Instance db;
  auto a = random_sparse_int(6, 6, 0.5, 212);
  write_matrix(db, "A", a);
  table_scale(db, "A", 0.0);
  EXPECT_EQ(table_entry_count(db, "A"), 0u);
  EXPECT_EQ(db.entry_estimate("A"), 0u);  // physically pruned, not hidden
}

TEST(TableOps, FilterDeletesCells) {
  nosql::Instance db;
  auto a = random_sparse_int(10, 10, 0.4, 213, 5);
  write_matrix(db, "A", a);
  table_filter(db, "A",
               [](const nosql::Key&, double v) { return v >= 3.0; });
  const auto expected =
      la::select(a, [](la::Index, la::Index, double v) { return v >= 3.0; });
  EXPECT_EQ(read_matrix(db, "A", 10, 10), expected);
}

TEST(TableOps, ReduceAndSum) {
  nosql::Instance db(3);
  auto a = random_sparse_int(15, 15, 0.3, 214);
  write_matrix(db, "A", a);
  db.add_splits("A", {assoc::vertex_key(5), assoc::vertex_key(10)});
  double expected_sum = 0;
  double expected_max = 0;
  for (double v : a.values()) {
    expected_sum += v;
    expected_max = std::max(expected_max, v);
  }
  EXPECT_DOUBLE_EQ(table_sum(db, "A"), expected_sum);
  EXPECT_DOUBLE_EQ(table_reduce(
                       db, "A",
                       [](double x, double y) { return std::max(x, y); }, 0.0),
                   expected_max);
  nosql::Instance empty_db;
  empty_db.create_table("E");
  EXPECT_EQ(table_sum(empty_db, "E"), 0.0);
}

TEST(TableOps, RowDegrees) {
  nosql::Instance db;
  auto a = random_sparse_int(9, 9, 0.4, 215);
  write_matrix(db, "A", a);
  table_row_degrees(db, "A", "Adeg");
  const auto sums = la::row_sums(a);
  nosql::Scanner scan(db, "Adeg");
  std::size_t seen = 0;
  scan.for_each([&](const nosql::Key& k, const nosql::Value& v) {
    const auto i = assoc::parse_vertex_key(k.row);
    ASSERT_GE(i, 0);
    EXPECT_DOUBLE_EQ(nosql::decode_double(v).value_or(-1),
                     sums[static_cast<std::size_t>(i)]);
    ++seen;
  });
  // Rows with no entries are absent (associative arrays have no empty rows).
  std::size_t nonempty = 0;
  for (double s : sums) {
    if (s != 0) ++nonempty;
  }
  EXPECT_EQ(seen, nonempty);
}

TEST(TableOps, EwiseMultIntersectsTables) {
  nosql::Instance db;
  auto a = random_sparse_int(12, 12, 0.35, 216);
  auto b = random_sparse_int(12, 12, 0.35, 217);
  write_matrix(db, "A", a);
  write_matrix(db, "B", b);
  table_ewise_mult(db, "A", "B", "C");
  EXPECT_EQ(read_matrix(db, "C", 12, 12), la::hadamard(a, b));
}

TEST(TableAlgos, BfsLevelsMatchMatrixBfs) {
  nosql::Instance db;
  // Path 0-1-2-3 plus isolated 4: distances from 0 are 0,1,2,3.
  auto a = la::SpMat<double>::from_triples(
      5, 5, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}, {2, 1, 1.0},
             {2, 3, 1.0}, {3, 2, 1.0}});
  write_matrix(db, "A", a);
  const auto levels = adj_bfs(db, "A", {assoc::vertex_key(0)}, 10);
  EXPECT_EQ(levels.size(), 4u);  // vertex 4 unreachable
  EXPECT_EQ(levels.at(assoc::vertex_key(0)), 0);
  EXPECT_EQ(levels.at(assoc::vertex_key(1)), 1);
  EXPECT_EQ(levels.at(assoc::vertex_key(3)), 3);
}

TEST(TableAlgos, BfsHopLimitTruncates) {
  nosql::Instance db;
  auto a = la::SpMat<double>::from_triples(
      4, 4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  write_matrix(db, "A", a);
  const auto levels = adj_bfs(db, "A", {assoc::vertex_key(0)}, 2);
  EXPECT_EQ(levels.size(), 3u);
  EXPECT_FALSE(levels.count(assoc::vertex_key(3)));
}

TEST(TableAlgos, BfsMultipleSeeds) {
  nosql::Instance db;
  auto a = la::SpMat<double>::from_triples(
      6, 6, {{0, 1, 1.0}, {4, 5, 1.0}});
  write_matrix(db, "A", a);
  const auto levels =
      adj_bfs(db, "A", {assoc::vertex_key(0), assoc::vertex_key(4)}, 3);
  EXPECT_EQ(levels.at(assoc::vertex_key(1)), 1);
  EXPECT_EQ(levels.at(assoc::vertex_key(5)), 1);
}

TEST(TableAlgos, JaccardMatchesPaperExample) {
  // Fig. 2 of the paper: J(1,2)=1/5, J(1,3)=1/2, J(1,4)=1/4, J(1,5)=1/3,
  // J(2,4)=2/3, J(3,5)=1/3 (1-indexed). Vertices map to v|000000...
  nosql::Instance db;
  write_matrix(db, "A", paper_example_adjacency());
  const auto written = table_jaccard(db, "A", "J");
  EXPECT_EQ(written, 8u);  // nonzero upper-triangle coefficients
  auto j = read_matrix(db, "J", 5, 5);
  EXPECT_NEAR(j.at(0, 1), 1.0 / 5.0, 1e-12);
  EXPECT_NEAR(j.at(0, 2), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(j.at(0, 3), 1.0 / 4.0, 1e-12);
  EXPECT_NEAR(j.at(0, 4), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(j.at(1, 3), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(j.at(2, 4), 1.0 / 3.0, 1e-12);
}

TEST(TableAlgos, KTrussRemovesDanglingEdge) {
  // The paper's Fig. 1 example: the 3-truss removes edge 6 (v2-v5) and
  // keeps the 5 remaining edges (10 directed cells).
  nosql::Instance db;
  write_matrix(db, "A", paper_example_adjacency());
  const auto cells = table_ktruss(db, "A", 3, "T");
  EXPECT_EQ(cells, 10u);
  auto t = read_matrix(db, "T", 5, 5);
  EXPECT_EQ(t.at(1, 4), 0.0);  // v2-v5 gone
  EXPECT_EQ(t.at(0, 1), 1.0);
  EXPECT_EQ(t.at(2, 3), 1.0);
}

TEST(TableAlgos, KTrussTwoTrussKeepsEveryEdge) {
  // Every edge belongs to the 2-truss, triangle or not: Fig. 1's k = 2
  // keeps all 6 edges (12 directed cells), v2-v5 included.
  nosql::Instance db;
  write_matrix(db, "A", paper_example_adjacency());
  EXPECT_EQ(table_ktruss(db, "A", 2, "T"), 12u);
  EXPECT_EQ(read_matrix(db, "T", 5, 5), paper_example_adjacency());
}

TEST(TableAlgos, KTrussOfTriangleFreeGraphIsEmpty) {
  nosql::Instance db;
  // 4-cycle: no triangles, so the 3-truss is empty.
  auto a = la::SpMat<double>::from_triples(
      4, 4, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}, {2, 1, 1.0},
             {2, 3, 1.0}, {3, 2, 1.0}, {3, 0, 1.0}, {0, 3, 1.0}});
  write_matrix(db, "A", a);
  EXPECT_EQ(table_ktruss(db, "A", 3, "T"), 0u);
}

TEST(TableAlgos, KTrussKeepsClique) {
  nosql::Instance db;
  // K5 is a 5-truss: survives k=5 intact (20 directed cells).
  std::vector<la::Triple<double>> triples;
  for (la::Index i = 0; i < 5; ++i) {
    for (la::Index j = 0; j < 5; ++j) {
      if (i != j) triples.push_back({i, j, 1.0});
    }
  }
  write_matrix(db, "A", la::SpMat<double>::from_triples(5, 5, triples));
  EXPECT_EQ(table_ktruss(db, "A", 5, "T"), 20u);
  EXPECT_EQ(table_ktruss(db, "A", 6, "T6"), 0u);
}

}  // namespace
}  // namespace graphulo::core
