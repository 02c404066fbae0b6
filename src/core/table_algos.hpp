#pragma once
// Graph algorithms executed directly against database tables — the
// paper's end goal ("perform graph algorithms directly on NoSQL
// databases"). The trio implemented here (BFS from a seed set, Jaccard
// similarity, k-truss) matches the headline algorithms of the actual
// Graphulo server library, built on TableMult / table-scope kernels.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/tablemult.hpp"
#include "nosql/instance.hpp"

namespace graphulo::core {

/// Breadth-first search over an adjacency table (row -> qualifier =
/// out-neighbor). Returns vertex -> hop distance for every vertex within
/// `max_hops` of the seeds (seeds at distance 0). Each hop is one batch
/// scan over the frontier rows — Graphulo's AdjBFS pattern.
std::map<std::string, int> adj_bfs(nosql::Instance& db,
                                   const std::string& adj_table,
                                   const std::vector<std::string>& seeds,
                                   int max_hops);

/// Jaccard similarity on an undirected 0/1 adjacency table. Computes
/// common-neighbor counts server-side with one TableMult (A^T A, into a
/// `<out_table>__common` table dropped before returning), degrees as
/// row sums from one scan of A, and writes
/// J(i,j) = |N(i) ^ N(j)| / |N(i) u N(j)| for i < j into `out_table`
/// (created with the default config when missing). Returns the number
/// of similarity cells written.
std::size_t table_jaccard(nosql::Instance& db, const std::string& adj_table,
                          const std::string& out_table);

/// k-truss of an undirected 0/1 adjacency table: Algorithm 1 with
/// Section IV's pruning, as Graphulo's kTrussAdj runs it in the
/// database. Each round computes per-edge triangle support with one
/// masked TableMult of the edge table with itself (pattern (x), the
/// edge table as its own mask), then a compaction filter deletes edges
/// with support < k-2; rounds alternate between `out_table` and a
/// `<out_table>__kt` scratch table until one removes nothing. For
/// k < 3 every loop-free edge survives. `out_table` is replaced and
/// always ends as a sum table (sum_table_config) holding the surviving
/// subgraph as a 0/1 adjacency. Returns the number of surviving
/// directed edge cells.
std::size_t table_ktruss(nosql::Instance& db, const std::string& adj_table,
                         int k, const std::string& out_table);

/// Number of cells visible in a table (scan count).
std::size_t table_entry_count(nosql::Instance& db, const std::string& table);

/// Triangle count of an undirected 0/1 adjacency table, adjacency-based
/// masked form (the Graphulo "Distributed Triangle Counting" follow-up,
/// 1709.01054): sum(L .* (L·U)) computed as ONE fused table_mult_reduce
/// over the adjacency table itself — strict-upper scan filters read
/// both inputs as U in place (C = U^T·U = L·U), the adjacency doubles
/// as its own strict-lower mask L, and the final reduction folds in the
/// workers. Nothing is materialized: no L or U tables, no wedge table,
/// no result table. Each triangle is counted exactly once. `stats`
/// (optional) receives the kernel's TableMultStats — the
/// partial_products vs partial_products_pruned split is the headline
/// masking win the Weale benchmark reports.
std::uint64_t table_triangle_count_masked(nosql::Instance& db,
                                          const std::string& adj_table,
                                          TableMultStats* stats = nullptr);

/// Unmasked trace(A^3)/6 formulation — the ablation baseline: one full
/// TableMult materializes the wedge table W = A^T·A (every open wedge
/// becomes a partial product), an eWise intersection with A restricts
/// to closed wedges, and a table sum divides by 6. `stats` receives the
/// wedge multiply's TableMultStats (its partial_products is the
/// unmasked emission count the masked path avoids).
std::uint64_t table_triangle_count_trace(nosql::Instance& db,
                                         const std::string& adj_table,
                                         TableMultStats* stats = nullptr);

/// Incidence-based triangle count (the k-truss machinery of Algorithm 1
/// applied to counting): builds the transposed unoriented incidence
/// table E^T (row = vertex, qualifier = edge key, one edge per
/// undirected adjacency pair), computes R = E·A with one TableMult
/// (rows of R are edges, R(e, w) = how many endpoints of e are adjacent
/// to w), and counts entries equal to 2 — each triangle contributes one
/// such entry per edge, so the count divides by 3. Working tables are
/// dropped before returning.
std::uint64_t table_triangle_count_incidence(nosql::Instance& db,
                                             const std::string& adj_table);

/// PageRank executed against an adjacency table: each power sweep
/// writes the scaled frontier x/d as a one-column table and folds
/// y(j) = sum_i A(i, j) * x(i)/d(i) with one fused table_mult_reduce
/// (per-row totals, no result table); the client only applies the O(n)
/// damping/dangling correction between sweeps (Graphulo's orchestration
/// pattern: bulk work in the database, scalar glue in the client).
/// Out-degrees d (row sums) and the vertex universe come from one scan
/// of A. Returns vertex key -> score (sums to 1).
std::map<std::string, double> table_pagerank(nosql::Instance& db,
                                             const std::string& adj_table,
                                             double alpha = 0.15,
                                             int iterations = 30);

}  // namespace graphulo::core
