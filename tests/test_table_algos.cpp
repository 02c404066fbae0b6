// Table-level graph algorithms against their in-memory oracles: k-truss
// (Algorithm 1 as masked TableMult rounds) against ktruss_adjacency,
// Jaccard against the strict upper triangle of jaccard_linalg, and
// PageRank (a fused per-row reduce per sweep) against the matrix power
// method. RMAT inputs are split into 4 tablets, so every TableMult runs
// partitioned.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/centrality.hpp"
#include "algo/jaccard.hpp"
#include "algo/ktruss.hpp"
#include "assoc/table_io.hpp"
#include "core/table_algos.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "test_helpers.hpp"

namespace graphulo::core {
namespace {

using assoc::read_matrix;
using assoc::write_matrix;
using graphulo::testing::paper_example_adjacency;

/// Writes `a` as table `name`, split into `tablets` equal row ranges.
void load(nosql::Instance& db, const std::string& name,
          const la::SpMat<double>& a, int tablets) {
  write_matrix(db, name, a);
  if (tablets > 1) {
    std::vector<std::string> splits;
    for (int s = 1; s < tablets; ++s) {
      splits.push_back(assoc::vertex_key(a.rows() * s / tablets));
    }
    db.add_splits(name, splits);
  }
}

la::SpMat<double> rmat(int scale) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  return gen::rmat_simple_adjacency(p);
}

/// table_ktruss returns exactly the oracle's edges, with 0/1 values, and
/// leaves no table behind but its input and output.
void expect_ktruss_matches_oracle(const la::SpMat<double>& a, int k,
                                  int tablets = 1) {
  SCOPED_TRACE("k = " + std::to_string(k));
  nosql::Instance db(tablets);
  load(db, "A", a, tablets);
  const auto oracle = la::pattern(algo::ktruss_adjacency(a, k));
  EXPECT_EQ(table_ktruss(db, "A", k, "T"),
            static_cast<std::size_t>(oracle.nnz()));
  EXPECT_EQ(read_matrix(db, "T", a.rows(), a.cols()), oracle);
  EXPECT_EQ(db.table_names(), (std::vector<std::string>{"A", "T"}));
}

la::SpMat<double> complete_graph(la::Index n) {
  std::vector<la::Triple<double>> triples;
  for (la::Index i = 0; i < n; ++i) {
    for (la::Index j = 0; j < n; ++j) {
      if (i != j) triples.push_back({i, j, 1.0});
    }
  }
  return la::SpMat<double>::from_triples(n, n, std::move(triples));
}

TEST(TableKTruss, MatchesOracleOnSmallGraphs) {
  // Fig. 1: the 2-truss keeps every edge, the 3-truss drops v2-v5.
  expect_ktruss_matches_oracle(paper_example_adjacency(), 2);
  expect_ktruss_matches_oracle(paper_example_adjacency(), 3);
  // K5 is a 5-truss and no 6-truss.
  expect_ktruss_matches_oracle(complete_graph(5), 5);
  expect_ktruss_matches_oracle(complete_graph(5), 6);
  // The 4-cycle has no triangle: empty 3-truss, intact 2-truss.
  const auto cycle = la::SpMat<double>::from_triples(
      4, 4, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}, {2, 1, 1.0},
             {2, 3, 1.0}, {3, 2, 1.0}, {3, 0, 1.0}, {0, 3, 1.0}});
  expect_ktruss_matches_oracle(cycle, 3);
  expect_ktruss_matches_oracle(cycle, 2);
}

TEST(TableKTruss, MatchesOracleOnRmatAcrossTablets) {
  for (int scale : {9, 10}) {
    SCOPED_TRACE("RMAT scale " + std::to_string(scale));
    const auto a = rmat(scale);
    for (int k : {3, 4, 5}) expect_ktruss_matches_oracle(a, k, /*tablets=*/4);
  }
}

TEST(TableJaccard, MatchesOracleOnRmat) {
  const auto a = rmat(8);
  nosql::Instance db(4);
  load(db, "A", a, 4);
  const auto oracle = la::triu(algo::jaccard_linalg(a));
  EXPECT_EQ(table_jaccard(db, "A", "J"),
            static_cast<std::size_t>(oracle.nnz()));
  EXPECT_EQ(read_matrix(db, "J", a.rows(), a.cols()), oracle);
  EXPECT_EQ(db.table_names(), (std::vector<std::string>{"A", "J"}));
}

TEST(TablePagerank, MatchesMatrixPagerankOnTables) {
  nosql::Instance db(2);
  const auto a = graphulo::testing::random_undirected(30, 0.2, 77);
  assoc::write_matrix(db, "G", a);
  const auto table_scores = table_pagerank(db, "G", 0.15, 40);
  const auto matrix_result =
      algo::pagerank(a, 0.15, {.max_iterations = 40, .tolerance = 0.0});
  ASSERT_EQ(table_scores.size(), static_cast<std::size_t>(a.rows()));
  double total = 0;
  for (const auto& [key, s] : table_scores) {
    const auto v = assoc::parse_vertex_key(key);
    ASSERT_GE(v, 0);
    EXPECT_NEAR(s, matrix_result.scores[static_cast<std::size_t>(v)], 1e-6)
        << key;
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // RMAT in 4 tablets: each sweep's per-row reduce folds 4 partitions.
  // Isolated vertices are in no table, so the oracle ranks the subgraph
  // induced by the vertices that have edges.
  const auto r = rmat(8);
  nosql::Instance rdb(4);
  load(rdb, "R", r, 4);
  const auto rmat_scores = table_pagerank(rdb, "R", 0.15, 40);
  std::vector<la::Index> universe;
  for (la::Index v = 0; v < r.rows(); ++v) {
    if (!r.row_cols(v).empty()) universe.push_back(v);
  }
  const auto rmat_result = algo::pagerank(
      la::spref(r, universe, universe), 0.15,
      {.max_iterations = 40, .tolerance = 0.0});
  ASSERT_EQ(rmat_scores.size(), universe.size());
  for (std::size_t t = 0; t < universe.size(); ++t) {
    const auto key = assoc::vertex_key(universe[t]);
    EXPECT_NEAR(rmat_scores.at(key), rmat_result.scores[t], 1e-6) << key;
  }
  EXPECT_EQ(rdb.table_names(), (std::vector<std::string>{"R"}));
}

TEST(TablePagerank, HandlesSinksViaQualifierUniverse) {
  nosql::Instance db;
  // 0 -> 1, 1 is a pure sink (never a row key in the table).
  auto a = la::SpMat<double>::from_triples(2, 2, {{0, 1, 1.0}});
  assoc::write_matrix(db, "G", a);
  const auto scores = table_pagerank(db, "G", 0.15, 50);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores.at(assoc::vertex_key(1)), scores.at(assoc::vertex_key(0)));
  const auto matrix_result =
      algo::pagerank(a, 0.15, {.max_iterations = 50, .tolerance = 0.0});
  EXPECT_NEAR(scores.at(assoc::vertex_key(0)), matrix_result.scores[0], 1e-6);
}

TEST(TablePagerank, EmptyTableYieldsEmptyScores) {
  nosql::Instance db;
  db.create_table("empty");
  EXPECT_TRUE(table_pagerank(db, "empty").empty());
}

}  // namespace
}  // namespace graphulo::core
