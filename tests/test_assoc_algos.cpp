// Algorithms directly on associative arrays (the paper's Section IV
// next step).

#include <gtest/gtest.h>

#include "algo/centrality.hpp"
#include "core/assoc_algos.hpp"

namespace graphulo::core {
namespace {

using assoc::AssocArray;

AssocArray string_keyed_graph() {
  // Undirected triangle alice-bob-carol plus pendant dave-alice.
  std::vector<assoc::Entry> entries;
  auto edge = [&entries](const char* u, const char* v) {
    entries.push_back({u, v, 1.0});
    entries.push_back({v, u, 1.0});
  };
  edge("alice", "bob");
  edge("bob", "carol");
  edge("alice", "carol");
  edge("alice", "dave");
  return AssocArray::from_entries(std::move(entries));
}

TEST(AlignVertices, UnionsRowAndColumnKeys) {
  // A directed edge to a sink key that never appears as a row.
  auto a = AssocArray::from_entries({{"src", "sink", 1.0}});
  const auto g = align_vertices(a);
  EXPECT_EQ(g.vertices, (std::vector<std::string>{"sink", "src"}));
  EXPECT_EQ(g.adjacency.rows(), 2);
  EXPECT_EQ(g.adjacency.at(1, 0), 1.0);  // src -> sink
}

TEST(AssocPagerank, MatchesMatrixPagerank) {
  const auto a = string_keyed_graph();
  const auto scores = assoc_pagerank(a);
  ASSERT_EQ(scores.size(), 4u);
  double total = 0;
  for (const auto& [key, s] : scores) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // alice has the highest degree -> highest rank.
  EXPECT_GT(scores.at("alice"), scores.at("bob"));
  EXPECT_GT(scores.at("bob"), scores.at("dave"));
  // Cross-check against the matrix form on the aligned graph.
  const auto g = align_vertices(a);
  const auto matrix_result = algo::pagerank(g.adjacency);
  for (std::size_t v = 0; v < g.vertices.size(); ++v) {
    EXPECT_NEAR(scores.at(g.vertices[v]), matrix_result.scores[v], 1e-9);
  }
}

TEST(AssocBfs, LevelsByKey) {
  const auto levels = assoc_bfs(string_keyed_graph(), "dave");
  EXPECT_EQ(levels.at("dave"), 0);
  EXPECT_EQ(levels.at("alice"), 1);
  EXPECT_EQ(levels.at("bob"), 2);
  EXPECT_EQ(levels.at("carol"), 2);
  EXPECT_THROW(assoc_bfs(string_keyed_graph(), "nobody"),
               std::invalid_argument);
}

TEST(AssocKTruss, DropsPendantEdge) {
  const auto truss = assoc_ktruss(string_keyed_graph(), 3);
  // The triangle survives; the dangling alice-dave edge does not.
  EXPECT_EQ(truss.at("alice", "bob"), 1.0);
  EXPECT_EQ(truss.at("bob", "carol"), 1.0);
  EXPECT_EQ(truss.at("alice", "dave"), 0.0);
  // dave disappears from the key space entirely (condensed).
  EXPECT_FALSE(truss.row_index("dave").has_value());
}

TEST(AssocJaccard, CoefficientsByKey) {
  const auto j = assoc_jaccard(string_keyed_graph());
  // bob and dave share neighbor alice: J = 1 / (2 + 1 - 1) = 0.5.
  EXPECT_NEAR(j.at("bob", "dave"), 0.5, 1e-12);
  EXPECT_NEAR(j.at("dave", "bob"), 0.5, 1e-12);
  // bob and carol: common = alice; union = {alice,carol}+{alice,bob}
  // -> 1/3.
  EXPECT_NEAR(j.at("bob", "carol"), 1.0 / 3.0, 1e-12);
}

TEST(AssocDegrees, MatchesRowSums) {
  const auto degrees = assoc_degrees(string_keyed_graph());
  EXPECT_EQ(degrees.at("alice"), 3.0);
  EXPECT_EQ(degrees.at("bob"), 2.0);
  EXPECT_EQ(degrees.at("dave"), 1.0);
}

}  // namespace
}  // namespace graphulo::core
