// The Graphulo premise (Sections I-A, IV): execute GraphBLAS kernels
// inside the database. Compares server-side TableMult (row-aligned
// merge join, partial products pre-summed per partition, then
// combiner-summed writes, never materializing the result client-side)
// against the client-side round trip (scan A and B out,
// SpGEMM locally, write C back), across matrix sizes and tablet counts;
// sweeps the partitioned pipeline's worker count; ablates the
// structural mask (unmasked multiply vs masked multiply vs fused
// masked reduce, DESIGN.md §13); and measures the in-database graph
// algorithms (BFS / Jaccard / k-truss / PageRank on tables). Expected
// shape: both multiply paths produce identical tables, the masked paths
// prune partial products before they cost a mutation, and the fused
// reduce returns the same scalar without a result table. Every leg
// checks its result against an oracle and the bench exits nonzero if
// any disagrees. Emits BENCH_tablemult.json; --smoke shrinks every
// sweep for CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "algo/centrality.hpp"
#include "algo/jaccard.hpp"
#include "algo/ktruss.hpp"
#include "algo/traversal.hpp"
#include "assoc/table_io.hpp"
#include "core/table_algos.hpp"
#include "core/tablemult.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

#include "bench_metrics.hpp"

using namespace graphulo;

namespace {

la::SpMat<double> make_rmat(int scale) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = 6;
  return gen::rmat_simple_adjacency(p);
}

void load_adjacency(nosql::Instance& db, const std::string& table,
                    const la::SpMat<double>& a, int tablets) {
  assoc::write_matrix(db, table, a);
  if (tablets > 1) {
    std::vector<std::string> splits;
    for (int s = 1; s < tablets; ++s) {
      splits.push_back(assoc::vertex_key(a.rows() * s / tablets));
    }
    db.add_splits(table, splits);
  }
}

std::string run_server_vs_client(bool smoke, bool& all_agree) {
  util::TablePrinter table({"n", "nnz(A)", "tablets", "server_ms",
                            "client_ms", "partials", "emitted", "nnz(C)",
                            "agree"});
  std::string json = "[";
  bool first = true;
  for (int scale : smoke ? std::vector<int>{6, 7} : std::vector<int>{7, 8, 9}) {
    const auto a = make_rmat(scale);
    for (int tablets : {1, 4}) {
      nosql::Instance db(tablets);
      load_adjacency(db, "A", a, tablets);
      util::Timer t;
      const auto server =
          core::table_mult(db, "A", "A", "Cs", {.compact_result = true});
      const double server_ms = t.millis();
      t.reset();
      core::client_side_mult(db, "A", "A", "Cc", a.rows(), a.cols(), a.cols());
      const double client_ms = t.millis();
      const auto cs = assoc::read_matrix(db, "Cs", a.cols(), a.cols());
      const auto cc = assoc::read_matrix(db, "Cc", a.cols(), a.cols());
      const bool agree = cs == cc;
      all_agree = all_agree && agree;
      table.add_row({std::to_string(a.rows()), std::to_string(a.nnz()),
                     std::to_string(tablets),
                     util::TablePrinter::fmt(server_ms, 1),
                     util::TablePrinter::fmt(client_ms, 1),
                     std::to_string(server.partial_products),
                     std::to_string(server.cells_emitted),
                     std::to_string(cs.nnz()), agree ? "yes" : "NO"});
      if (!first) json += ", ";
      first = false;
      json += "{\"n\": " + std::to_string(a.rows()) +
              ", \"nnz\": " + std::to_string(a.nnz()) +
              ", \"tablets\": " + std::to_string(tablets) +
              ", \"server_ms\": " + util::TablePrinter::fmt(server_ms, 3) +
              ", \"client_ms\": " + util::TablePrinter::fmt(client_ms, 3) +
              ", \"partials\": " + std::to_string(server.partial_products) +
              ", \"cells_emitted\": " + std::to_string(server.cells_emitted) +
              ", \"agree\": " + (agree ? "true" : "false") + "}";
    }
  }
  json += "]";
  table.print("TableMult: server-side vs client-side C = A'A");
  return json;
}

// Worker scaling of the partitioned pipeline: same multiply, same
// input, num_workers swept. Throughput is partial products per second
// — the number the Graphulo follow-up papers benchmark. Single-worker
// runs take the serial path (one all-rows partition, no pool), so the
// speedup column is measured against the seed-equivalent baseline.
std::string run_worker_sweep(bool smoke, bool& all_agree) {
  util::TablePrinter table({"workers", "partitions", "rows_joined",
                            "partials", "emitted", "ms", "partials/s",
                            "speedup", "agree"});
  const auto a = make_rmat(smoke ? 7 : 9);
  constexpr int kTablets = 4;
  nosql::Instance db(kTablets);
  load_adjacency(db, "A", a, kTablets);
  double serial_seconds = 0;
  la::SpMat<double> serial_result;
  std::string json = "[";
  bool first = true;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    const std::string result = "Cw" + std::to_string(workers);
    const auto stats = core::table_mult(
        db, "A", "A", result, {.compact_result = true, .num_workers = workers});
    const auto c = assoc::read_matrix(db, result, a.cols(), a.cols());
    if (workers == 1) {
      serial_seconds = stats.seconds;
      serial_result = c;
    }
    const double throughput =
        stats.seconds > 0
            ? static_cast<double>(stats.partial_products) / stats.seconds
            : 0.0;
    const bool agree = c == serial_result;
    all_agree = all_agree && agree;
    table.add_row({std::to_string(workers),
                   std::to_string(stats.partitions.size()),
                   std::to_string(stats.rows_joined),
                   std::to_string(stats.partial_products),
                   std::to_string(stats.cells_emitted),
                   util::TablePrinter::fmt(stats.seconds * 1e3, 1),
                   util::TablePrinter::fmt(throughput / 1e6, 2) + "M",
                   util::TablePrinter::fmt(serial_seconds / stats.seconds, 2),
                   agree ? "yes" : "NO"});
    if (!first) json += ", ";
    first = false;
    json += "{\"workers\": " + std::to_string(workers) +
            ", \"partitions\": " + std::to_string(stats.partitions.size()) +
            ", \"partials\": " + std::to_string(stats.partial_products) +
            ", \"cells_emitted\": " + std::to_string(stats.cells_emitted) +
            ", \"ms\": " + util::TablePrinter::fmt(stats.seconds * 1e3, 3) +
            ", \"partials_per_s\": " + std::to_string(throughput) +
            ", \"agree\": " + (agree ? "true" : "false") + "}";
  }
  json += "]";
  table.print("TableMult worker scaling (4 tablets)");

  // Per-partition breakdown of one 4-worker run: where each worker's
  // time went, and how balanced the tablet-derived partitions are.
  util::TablePrinter parts({"partition", "rows_joined", "partials",
                            "emitted", "seeks", "scan_ms", "emit_ms",
                            "flush_ms", "total_ms"});
  const auto stats =
      core::table_mult(db, "A", "A", "Cparts", {.num_workers = 4});
  for (std::size_t i = 0; i < stats.partitions.size(); ++i) {
    const auto& part = stats.partitions[i];
    const std::string lo = part.start_row.empty() ? "-inf" : part.start_row;
    const std::string hi = part.end_row.empty() ? "+inf" : part.end_row;
    parts.add_row({"[" + lo + ", " + hi + ")",
                   std::to_string(part.rows_joined),
                   std::to_string(part.partial_products),
                   std::to_string(part.cells_emitted),
                   std::to_string(part.seeks),
                   util::TablePrinter::fmt(part.scan_seconds * 1e3, 1),
                   util::TablePrinter::fmt(part.emit_seconds * 1e3, 1),
                   util::TablePrinter::fmt(part.flush_seconds * 1e3, 1),
                   util::TablePrinter::fmt(part.seconds * 1e3, 1)});
  }
  parts.print("TableMult per-partition counters (4 workers)");
  return json;
}

// Structural-mask ablation (DESIGN.md §13): the same C = A'A with the
// adjacency as its own mask. Unmasked writes every partial product;
// masked drops the ones landing outside A's pattern before the
// BatchWriter; the fused reduce additionally never creates C. The
// oracle is the unmasked table intersected with A's pattern client-side
// (hadamard with the 0/1 adjacency).
std::string run_masked_ablation(bool smoke, bool& all_agree) {
  util::TablePrinter table({"mode", "partials", "pruned", "nnz(C)", "ms",
                            "agree"});
  const auto a = make_rmat(smoke ? 7 : 9);
  constexpr int kTablets = 4;
  nosql::Instance db(kTablets);
  load_adjacency(db, "A", a, kTablets);

  util::Timer t;
  const auto unmasked =
      core::table_mult(db, "A", "A", "Cu", {.compact_result = true});
  const double unmasked_ms = t.millis();
  const auto cu = assoc::read_matrix(db, "Cu", a.cols(), a.cols());

  core::TableMultOptions mopts;
  mopts.compact_result = true;
  mopts.mask_table = "A";
  t.reset();
  const auto masked = core::table_mult(db, "A", "A", "Cm", mopts);
  const double masked_ms = t.millis();
  const auto cm = assoc::read_matrix(db, "Cm", a.cols(), a.cols());
  const auto oracle = la::hadamard(cu, a);  // A is 0/1: pure pattern mask
  const bool masked_agree = cm == oracle;

  t.reset();
  const auto reduced = core::table_mult_reduce(db, "A", "A", mopts);
  const double reduce_ms = t.millis();
  const double oracle_sum =
      la::reduce_all(oracle, [](double x, double y) { return x + y; });
  const bool reduce_agree = reduced.total == oracle_sum;
  all_agree = all_agree && masked_agree && reduce_agree;

  table.add_row({"unmasked", std::to_string(unmasked.partial_products),
                 std::to_string(unmasked.partial_products_pruned),
                 std::to_string(cu.nnz()),
                 util::TablePrinter::fmt(unmasked_ms, 1), "yes"});
  table.add_row({"masked C<A>", std::to_string(masked.partial_products),
                 std::to_string(masked.partial_products_pruned),
                 std::to_string(cm.nnz()),
                 util::TablePrinter::fmt(masked_ms, 1),
                 masked_agree ? "yes" : "NO"});
  table.add_row({"fused reduce", std::to_string(reduced.stats.partial_products),
                 std::to_string(reduced.stats.partial_products_pruned), "0",
                 util::TablePrinter::fmt(reduce_ms, 1),
                 reduce_agree ? "yes" : "NO"});
  table.print("Masked TableMult ablation: C = A'A with mask A");

  std::string json = "[";
  json += "{\"mode\": \"unmasked\", \"partials\": " +
          std::to_string(unmasked.partial_products) +
          ", \"pruned\": " + std::to_string(unmasked.partial_products_pruned) +
          ", \"ms\": " + util::TablePrinter::fmt(unmasked_ms, 3) +
          ", \"agree\": true}";
  json += ", {\"mode\": \"masked\", \"partials\": " +
          std::to_string(masked.partial_products) +
          ", \"pruned\": " + std::to_string(masked.partial_products_pruned) +
          ", \"ms\": " + util::TablePrinter::fmt(masked_ms, 3) +
          ", \"agree\": " + (masked_agree ? "true" : "false") + "}";
  json += ", {\"mode\": \"fused_reduce\", \"partials\": " +
          std::to_string(reduced.stats.partial_products) +
          ", \"pruned\": " +
          std::to_string(reduced.stats.partial_products_pruned) +
          ", \"ms\": " + util::TablePrinter::fmt(reduce_ms, 3) +
          ", \"agree\": " + (reduce_agree ? "true" : "false") + "}";
  json += "]";
  return json;
}

// In-database graph algorithms (the Graphulo library trio plus
// PageRank), each checked against its in-memory oracle after the timed
// call: BFS levels against bfs_classic, k-truss against
// ktruss_adjacency, Jaccard against triu(jaccard_linalg), PageRank
// against the matrix power method on the vertices the table names.
std::string run_graph_algos(bool smoke, bool& all_agree) {
  util::TablePrinter table({"algorithm", "n", "result", "time_ms", "agree"});
  gen::RmatParams p;
  p.scale = smoke ? 6 : 8;
  p.edge_factor = 8;
  const auto a = gen::rmat_simple_adjacency(p);
  nosql::Instance db(2);
  assoc::write_matrix(db, "G", a);
  const std::string n = std::to_string(a.rows());
  std::string json = "[";
  const auto add = [&](const std::string& algorithm, const std::string& text,
                       double result, double ms, bool agree) {
    table.add_row({algorithm, n, text, util::TablePrinter::fmt(ms, 1),
                   agree ? "yes" : "NO"});
    all_agree = all_agree && agree;
    if (json.size() > 1) json += ", ";
    json += "{\"algorithm\": \"" + algorithm + "\", \"n\": " + n +
            ", \"result\": " + util::TablePrinter::fmt(result, 6) +
            ", \"ms\": " + util::TablePrinter::fmt(ms, 3) +
            ", \"agree\": " + (agree ? "true" : "false") + "}";
  };

  util::Timer t;
  const auto levels = core::adj_bfs(db, "G", {assoc::vertex_key(0)}, 3);
  double ms = t.millis();
  const auto bfs = algo::bfs_classic(a, 0);
  bool agree = true;
  std::size_t within = 0;
  for (la::Index v = 0; v < a.rows(); ++v) {
    const int level = bfs.level[static_cast<std::size_t>(v)];
    if (level < 0 || level > 3) continue;
    ++within;
    const auto it = levels.find(assoc::vertex_key(v));
    agree = agree && it != levels.end() && it->second == level;
  }
  agree = agree && levels.size() == within;
  add("AdjBFS (3 hops)", std::to_string(levels.size()) + " reached",
      static_cast<double>(levels.size()), ms, agree);

  t.reset();
  const auto pairs = core::table_jaccard(db, "G", "Gjac");
  ms = t.millis();
  agree = assoc::read_matrix(db, "Gjac", a.rows(), a.cols()) ==
          la::triu(algo::jaccard_linalg(a));
  add("Jaccard", std::to_string(pairs) + " pairs",
      static_cast<double>(pairs), ms, agree);

  t.reset();
  const auto truss_cells = core::table_ktruss(db, "G", 4, "Gtruss");
  ms = t.millis();
  agree = assoc::read_matrix(db, "Gtruss", a.rows(), a.cols()) ==
          la::pattern(algo::ktruss_adjacency(a, 4));
  add("kTruss (k=4)", std::to_string(truss_cells / 2) + " edges",
      static_cast<double>(truss_cells / 2), ms, agree);

  t.reset();
  const auto pr = core::table_pagerank(db, "G", 0.15, 15);
  ms = t.millis();
  // Isolated vertices are in no table: rank the induced subgraph.
  std::vector<la::Index> universe;
  for (la::Index v = 0; v < a.rows(); ++v) {
    if (!a.row_cols(v).empty()) universe.push_back(v);
  }
  const auto oracle =
      algo::pagerank(la::spref(a, universe, universe), 0.15,
                     {.max_iterations = 15, .tolerance = 0.0});
  agree = pr.size() == universe.size();
  for (std::size_t i = 0; agree && i < universe.size(); ++i) {
    const auto it = pr.find(assoc::vertex_key(universe[i]));
    agree = it != pr.end() && std::abs(it->second - oracle.scores[i]) <= 1e-6;
  }
  double top = 0;
  for (const auto& [key, s] : pr) top = std::max(top, s);
  add("PageRank (15 sweeps)", "top score " + util::TablePrinter::fmt(top, 4),
      top, ms, agree);
  table.print("Graph algorithms executed inside the database");
  return json + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  graphulo::bench::MetricsDump metrics_dump(argc, argv);
  bool all_agree = true;
  const auto server_vs_client = run_server_vs_client(smoke, all_agree);
  const auto worker_sweep = run_worker_sweep(smoke, all_agree);
  const auto masked = run_masked_ablation(smoke, all_agree);
  const auto graph_algos = run_graph_algos(smoke, all_agree);
  std::ofstream("BENCH_tablemult.json")
      << "{\"bench\": \"tablemult\", \"smoke\": " << (smoke ? "true" : "false")
      << ", \"server_vs_client\": " << server_vs_client
      << ", \"worker_sweep\": " << worker_sweep
      << ", \"masked_vs_unmasked\": " << masked
      << ", \"graph_algos\": " << graph_algos
      << ", \"all_agree\": " << (all_agree ? "true" : "false") << "}\n";
  std::printf("wrote BENCH_tablemult.json: %s\n",
              all_agree ? "every leg agrees with its oracle" : "DISAGREEMENT");
  return all_agree ? 0 : 1;
}
