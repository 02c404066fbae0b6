#include "core/table_algos.hpp"

#include <cmath>
#include <mutex>
#include <set>

#include "core/table_ops.hpp"
#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/codec.hpp"
#include "nosql/scanner.hpp"

namespace graphulo::core {

using nosql::decode_double;
using nosql::encode_double;

std::map<std::string, int> adj_bfs(nosql::Instance& db,
                                   const std::string& adj_table,
                                   const std::vector<std::string>& seeds,
                                   int max_hops) {
  std::map<std::string, int> level;
  std::set<std::string> frontier(seeds.begin(), seeds.end());
  for (const auto& s : frontier) level[s] = 0;

  for (int hop = 1; hop <= max_hops && !frontier.empty(); ++hop) {
    // One batched scan over all frontier rows.
    std::vector<nosql::Range> ranges;
    ranges.reserve(frontier.size());
    for (const auto& v : frontier) ranges.push_back(nosql::Range::exact_row(v));
    std::set<std::string> next;
    std::mutex next_mutex;
    nosql::BatchScanner scanner(db, adj_table);
    scanner.set_ranges(std::move(ranges));
    scanner.for_each([&](const nosql::Key& k, const nosql::Value&) {
      std::lock_guard lock(next_mutex);
      next.insert(k.qualifier);
    });
    frontier.clear();
    for (const auto& v : next) {
      if (level.emplace(v, hop).second) frontier.insert(v);
    }
  }
  return level;
}

std::size_t table_jaccard(nosql::Instance& db, const std::string& adj_table,
                          const std::string& out_table) {
  const std::string common = out_table + "__common";
  // Common-neighbor counts: A is symmetric, so A^T * A(i,j) counts the
  // shared neighbors k of i and j.
  table_mult(db, adj_table, adj_table, common, {.compact_result = true});

  // Degrees: row sums of A, from one scan.
  std::map<std::string, double> degree;
  nosql::Scanner deg_scan(db, adj_table);
  deg_scan.for_each([&degree](const nosql::Key& k, const nosql::Value& v) {
    if (const auto d = decode_double(v)) degree[k.row] += *d;
  });

  if (!db.table_exists(out_table)) db.create_table(out_table);
  nosql::BatchWriter writer(db, out_table);
  std::size_t written = 0;
  nosql::Scanner scan(db, common);
  scan.for_each([&](const nosql::Key& k, const nosql::Value& v) {
    if (!(k.row < k.qualifier)) return;  // strict upper triangle only
    const auto c = decode_double(v);
    if (!c || *c == 0.0) return;
    const double di = degree.count(k.row) ? degree[k.row] : 0.0;
    const double dj = degree.count(k.qualifier) ? degree[k.qualifier] : 0.0;
    const double denom = di + dj - *c;
    if (denom <= 0.0) return;
    nosql::Mutation m(k.row);
    m.put("", k.qualifier, encode_double(*c / denom));
    writer.add_mutation(std::move(m));
    ++written;
  });
  writer.flush();
  db.delete_table(common);
  return written;
}

std::size_t table_ktruss(nosql::Instance& db, const std::string& adj_table,
                         int k, const std::string& out_table) {
  // Loop-free 0/1 working copy. It is a sum table like the round
  // products it alternates with, so out_table always ends as one.
  if (db.table_exists(out_table)) db.delete_table(out_table);
  create_sum_table(db, out_table);
  std::size_t edges = 0;
  {
    nosql::BatchWriter writer(db, out_table);
    RowReader reader(open_table_scan(db, adj_table));
    while (reader.has_next()) {
      auto block = reader.next_row();
      nosql::Mutation m(block.row);
      for (const auto& cell : block.cells) {
        if (cell.key.row == cell.key.qualifier) continue;  // drop loops
        m.put(cell.key.family, cell.key.qualifier, encode_double(1.0));
        ++edges;
      }
      if (!m.updates().empty()) writer.add_mutation(std::move(m));
    }
    writer.flush();
  }
  if (k < 3) return edges;  // every edge belongs to the 2-truss

  // Algorithm 1 with Section IV's pruning. A round's support
  // S = A .* (A^T A) is one TableMult of the edge table with itself,
  // pattern (x) and the edge table as its own mask, so a wedge that
  // closes on no edge never reaches the accumulator. A compaction
  // filter then keeps support >= k-2, and the product becomes the next
  // round's edge table. After a round that removes nothing both tables
  // hold the fixpoint.
  const std::string scratch = out_table + "__kt";
  if (db.table_exists(scratch)) db.delete_table(scratch);
  const double min_support = static_cast<double>(k - 2);
  TableMultOptions options;
  options.multiply = [](double, double) { return 1.0; };
  std::string edge_table = out_table;
  std::string support = scratch;
  for (;;) {
    options.mask_table = edge_table;
    table_mult(db, edge_table, edge_table, support, options);
    table_filter(db, support, [min_support](const nosql::Key&, double s) {
      return s >= min_support;
    });
    const std::size_t kept = table_entry_count(db, support);
    std::swap(edge_table, support);
    if (kept == edges) break;
    edges = kept;
    db.delete_table(support);
  }
  db.delete_table(scratch);
  table_apply(db, out_table, [](double) { return 1.0; });
  return edges;
}

std::map<std::string, double> table_pagerank(nosql::Instance& db,
                                             const std::string& adj_table,
                                             double alpha, int iterations) {
  // Out-degrees (row sums of A) and the vertex universe from one scan;
  // sinks appear only as qualifiers and keep degree 0.
  std::map<std::string, double> degree;
  {
    nosql::Scanner scan(db, adj_table);
    scan.for_each([&degree](const nosql::Key& k, const nosql::Value& v) {
      degree[k.row] += decode_double(v).value_or(0.0);
      degree.emplace(k.qualifier, 0.0);
    });
  }
  const auto n = degree.size();
  std::map<std::string, double> x;
  if (n == 0) return x;
  for (const auto& [key, d] : degree) {
    x[key] = 1.0 / static_cast<double>(n);
  }

  const std::string x_table = adj_table + "__prx";
  for (int it = 0; it < iterations; ++it) {
    // Write the scaled frontier x/d as a one-column table.
    if (db.table_exists(x_table)) db.delete_table(x_table);
    db.create_table(x_table);
    double dangling = 0.0;
    {
      nosql::BatchWriter writer(db, x_table);
      for (const auto& [key, value] : x) {
        const double d = degree[key];
        if (d == 0.0) {
          dangling += value;
          continue;
        }
        nosql::Mutation m(key);
        m.put("", "rank", encode_double(value / d));
        writer.add_mutation(std::move(m));
      }
    }
    // One server-side fused reduce: y(j) = sum_i A(i, j) * (x/d)(i),
    // folded per output row in the workers; no y table exists.
    const auto y = table_mult_reduce(db, adj_table, x_table, {},
                                     /*per_row=*/true)
                       .row_totals;
    // Client-side O(n) glue: damping + dangling redistribution.
    const double uniform =
        alpha / static_cast<double>(n) +
        (1.0 - alpha) * dangling / static_cast<double>(n);
    double total = 0.0;
    for (auto& [key, value] : x) {
      const auto yk = y.find(key);
      value = (1.0 - alpha) * (yk != y.end() ? yk->second : 0.0) + uniform;
      total += value;
    }
    for (auto& [key, value] : x) value /= total;
  }
  if (db.table_exists(x_table)) db.delete_table(x_table);
  return x;
}

std::size_t table_entry_count(nosql::Instance& db, const std::string& table) {
  std::size_t count = 0;
  nosql::Scanner scan(db, table);
  scan.for_each([&count](const nosql::Key&, const nosql::Value&) { ++count; });
  return count;
}

std::uint64_t table_triangle_count_masked(nosql::Instance& db,
                                          const std::string& adj_table,
                                          TableMultStats* stats) {
  // One fused kernel: A read as U twice (scan filters), masked by A
  // read as L (mask filter), partial products folded in the workers.
  // sum(L .* (U^T·U)) = sum(L .* (L·U)) = triangles, each once.
  TableMultOptions options;
  options.row_filter = strict_upper_filter();
  options.col_filter = strict_upper_filter();
  options.mask_table = adj_table;
  options.mask_filter = strict_lower_filter();
  const auto reduced = table_mult_reduce(db, adj_table, adj_table, options);
  if (stats) *stats = reduced.stats;
  return static_cast<std::uint64_t>(std::llround(reduced.total));
}

std::uint64_t table_triangle_count_trace(nosql::Instance& db,
                                         const std::string& adj_table,
                                         TableMultStats* stats) {
  const std::string wedges = adj_table + "__tri_w";
  const std::string closed = adj_table + "__tri_c";
  if (db.table_exists(wedges)) db.delete_table(wedges);
  if (db.table_exists(closed)) db.delete_table(closed);
  // Every open wedge i-k-j becomes a partial product of W = A^T·A; the
  // unmasked emission count in `stats` is the cost the masked
  // formulation prunes.
  const auto s =
      table_mult(db, adj_table, adj_table, wedges, {.compact_result = true});
  if (stats) *stats = s;
  table_ewise_mult(db, wedges, adj_table, closed);
  const double trace = table_sum(db, closed);  // = trace(A^3)
  db.delete_table(wedges);
  db.delete_table(closed);
  return static_cast<std::uint64_t>(std::llround(trace / 6.0));
}

std::uint64_t table_triangle_count_incidence(nosql::Instance& db,
                                             const std::string& adj_table) {
  const std::string et_table = adj_table + "__tri_et";
  const std::string r_table = adj_table + "__tri_r";
  if (db.table_exists(et_table)) db.delete_table(et_table);
  if (db.table_exists(r_table)) db.delete_table(r_table);
  // Transposed unoriented incidence: row = vertex, qualifier = edge key
  // "u#v" (upper-triangle order gives one edge per undirected pair).
  // The transpose is what makes the next join cheap: TableMult joins on
  // the ROW dimension, which must be the shared vertex axis.
  db.create_table(et_table);
  {
    nosql::BatchWriter writer(db, et_table);
    RowReader reader(open_table_scan(db, adj_table));
    reader.set_cell_filter(strict_upper_filter());
    while (reader.has_next()) {
      const auto block = reader.next_row();
      for (const auto& cell : block.cells) {
        const std::string edge = block.row + "#" + cell.key.qualifier;
        nosql::Mutation mu(block.row);
        mu.put("", edge, encode_double(1.0));
        writer.add_mutation(std::move(mu));
        nosql::Mutation mv(cell.key.qualifier);
        mv.put("", edge, encode_double(1.0));
        writer.add_mutation(std::move(mv));
      }
    }
    writer.flush();
  }
  // R = E·A via TableMult's row join: R(e, w) counts endpoints of e
  // adjacent to w. An entry of exactly 2 closes a triangle over edge e
  // and apex w; each triangle produces one per edge, hence / 3. This is
  // precisely how Algorithm 1 reads k-truss edge support off E·A.
  table_mult(db, et_table, adj_table, r_table, {.compact_result = true});
  std::size_t twos = 0;
  nosql::Scanner scan(db, r_table);
  scan.for_each([&twos](const nosql::Key&, const nosql::Value& v) {
    const auto d = decode_double(v);
    if (d && *d == 2.0) ++twos;
  });
  db.delete_table(et_table);
  db.delete_table(r_table);
  return static_cast<std::uint64_t>(twos / 3);
}

}  // namespace graphulo::core
