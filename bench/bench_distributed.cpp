// Local-vs-distributed comparison for the socket-RPC mode: spawns 3
// graphulo_tsd daemons (the real binary, fork/exec, ephemeral ports)
// and measures, against a single-process Instance baseline:
//
//   scan       full-table drain throughput (cells/s) at several
//              kScanContinue batch sizes — the lease/batch knob's cost
//              curve (EXPERIMENTS.md knob table),
//   write      exactly-once remote writer vs local BatchWriter
//              (mutations/s; remote acks are WAL-synced on the server),
//   tablemult  C += A^T*A on an RMAT adjacency: the unchanged kernel on
//              a LocalDataPlane vs the same kernel against the fleet
//              through ClusterDataPlane.
//
// The distributed product is checked cell-for-cell against the local
// one (small-integer sums are exact); the bench exits nonzero on any
// disagreement, so CI smoke doubles as an equivalence gate. Emits
// BENCH_distributed.json; --smoke shrinks sizes for CI.
//
// The daemons are a perfbench::Fleet: a failed start throws, and every
// exit path (including that exception) kills and reaps the daemons
// already running; each daemon also dies with this process.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "assoc/table_io.hpp"
#include "core/tablemult.hpp"
#include "distributed/cluster.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/codec.hpp"
#include "nosql/instance.hpp"
#include "nosql/scanner.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

#include "bench_metrics.hpp"
#include "perfbench/fleet.hpp"

using namespace graphulo;

namespace {

struct CellTally {
  std::size_t cells = 0;
  double value_sum = 0;

  bool operator==(const CellTally&) const = default;
};

CellTally tally_local(nosql::Instance& db, const std::string& table) {
  CellTally t;
  nosql::Scanner scan(db, table);
  scan.for_each([&t](const nosql::Key&, const nosql::Value& v) {
    ++t.cells;
    t.value_sum += nosql::decode_double(v).value_or(0.0);
  });
  return t;
}

CellTally tally_remote(distributed::Cluster& cluster,
                       const std::string& table) {
  CellTally t;
  auto it = cluster.scan(table, nosql::Range::all());
  while (it->has_top()) {
    ++t.cells;
    t.value_sum += nosql::decode_double(it->top_value()).value_or(0.0);
    it->next();
  }
  return t;
}

/// Runs every leg against a fleet whose data directories live under
/// `base`; returns the process exit status.
int run(bool smoke, const std::string& base) {
  const int scan_rows = smoke ? 20000 : 200000;
  const int rmat_scale = smoke ? 7 : 9;

  // ---- fleet ------------------------------------------------------------
  gen::RmatParams params;
  params.scale = rmat_scale;
  params.edge_factor = 8;
  const auto a = gen::rmat_simple_adjacency(params);
  const la::Index n = a.rows();

  const int key_span = std::max<int>(scan_rows, n);
  const std::vector<std::string> boundaries = {
      assoc::vertex_key(key_span / 3), assoc::vertex_key(2 * key_span / 3)};
  const perfbench::Fleet fleet(GRAPHULO_TSD_PATH, base, boundaries);
  const auto endpoints = fleet.cluster().endpoints();
  const auto make_cluster = [&](std::uint32_t scan_batch) {
    distributed::ClusterOptions options;
    options.scan_batch_cells = scan_batch;
    return distributed::Cluster(endpoints, boundaries, options);
  };

  std::string json = "{\"bench\": \"distributed\", \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ", \"servers\": 3";

  // ---- write: local BatchWriter vs exactly-once remote writer -----------
  nosql::Instance local;
  local.create_table("S");
  double local_write_ms = 0;
  {
    util::Timer timer;
    nosql::BatchWriter writer(local, "S");
    for (int i = 0; i < scan_rows; ++i) {
      nosql::Mutation m(assoc::vertex_key(i));
      m.put("f", "q", nosql::encode_double(i % 97));
      writer.add_mutation(std::move(m));
    }
    writer.close();
    local_write_ms = timer.millis();
  }
  auto cluster = make_cluster(2048);
  cluster.ensure_table("S", false);
  double remote_write_ms = 0;
  {
    util::Timer timer;
    auto writer = cluster.writer("S", "bench-loader");
    for (int i = 0; i < scan_rows; ++i) {
      nosql::Mutation m(assoc::vertex_key(i));
      m.put("f", "q", nosql::encode_double(i % 97));
      writer->add_mutation(std::move(m));
    }
    writer->close();
    remote_write_ms = timer.millis();
  }
  util::TablePrinter wtable({"mode", "mutations", "ms", "mutations_per_s"});
  const auto rate = [](int count, double ms) {
    return ms > 0 ? count / (ms / 1e3) : 0.0;
  };
  wtable.add_row({"local", std::to_string(scan_rows),
                  util::TablePrinter::fmt(local_write_ms, 1),
                  util::TablePrinter::fmt(rate(scan_rows, local_write_ms), 0)});
  wtable.add_row({"remote", std::to_string(scan_rows),
                  util::TablePrinter::fmt(remote_write_ms, 1),
                  util::TablePrinter::fmt(rate(scan_rows, remote_write_ms), 0)});
  wtable.print("Write path (local BatchWriter vs remote exactly-once writer)");
  json += ", \"write\": {\"mutations\": " + std::to_string(scan_rows) +
          ", \"local_ms\": " + util::TablePrinter::fmt(local_write_ms, 3) +
          ", \"remote_ms\": " + util::TablePrinter::fmt(remote_write_ms, 3) +
          "}";

  // ---- scan: drain throughput vs kScanContinue batch size ---------------
  util::TablePrinter stable({"mode", "batch_cells", "cells", "ms", "cells_per_s"});
  double local_scan_ms = 0;
  std::size_t scan_cells = 0;
  {
    util::Timer timer;
    scan_cells = tally_local(local, "S").cells;
    local_scan_ms = timer.millis();
  }
  stable.add_row({"local", "-", std::to_string(scan_cells),
                  util::TablePrinter::fmt(local_scan_ms, 1),
                  util::TablePrinter::fmt(
                      rate(static_cast<int>(scan_cells), local_scan_ms), 0)});
  json += ", \"scan\": {\"cells\": " + std::to_string(scan_cells) +
          ", \"local_ms\": " + util::TablePrinter::fmt(local_scan_ms, 3) +
          ", \"remote\": [";
  bool first = true;
  for (const std::uint32_t batch : {256u, 2048u, 8192u}) {
    auto batched = make_cluster(batch);
    util::Timer timer;
    const auto tally = tally_remote(batched, "S");
    const double ms = timer.millis();
    stable.add_row({"remote", std::to_string(batch),
                    std::to_string(tally.cells),
                    util::TablePrinter::fmt(ms, 1),
                    util::TablePrinter::fmt(
                        rate(static_cast<int>(tally.cells), ms), 0)});
    if (!first) json += ", ";
    first = false;
    json += "{\"batch_cells\": " + std::to_string(batch) +
            ", \"ms\": " + util::TablePrinter::fmt(ms, 3) + "}";
    if (tally.cells != scan_cells) {
      std::fprintf(stderr, "remote scan cell count mismatch: %zu vs %zu\n",
                   tally.cells, scan_cells);
      return 1;
    }
  }
  json += "]}";
  stable.print("Scan drain (local iterator vs leased remote scan)");

  // ---- tablemult: LocalDataPlane vs the 3-server fleet ------------------
  assoc::write_matrix(local, "A", a);
  const auto local_stats =
      core::table_mult(local, "A", "A", "C", {.compact_result = true});
  cluster.ensure_table("A", false);
  {
    auto writer = cluster.writer("A", "matrix-loader");
    for (const auto& t : a.to_triples()) {
      nosql::Mutation m(assoc::vertex_key(t.row));
      m.put(assoc::kValueFamily, assoc::vertex_key(t.col),
            nosql::encode_double(t.val));
      writer->add_mutation(std::move(m));
    }
    writer->close();
  }
  const auto remote_stats = distributed::table_mult(cluster, "A", "A", "C",
                                                    {.compact_result = true});
  const auto local_tally = tally_local(local, "C");
  const auto remote_tally = tally_remote(cluster, "C");
  const bool agree = local_tally == remote_tally;

  util::TablePrinter mtable(
      {"mode", "n", "nnz", "ms", "partials", "result_cells", "agree"});
  mtable.add_row({"local", std::to_string(n), std::to_string(a.nnz()),
                  util::TablePrinter::fmt(local_stats.seconds * 1e3, 1),
                  std::to_string(local_stats.partial_products),
                  std::to_string(local_tally.cells), agree ? "yes" : "NO"});
  mtable.add_row({"remote", std::to_string(n), std::to_string(a.nnz()),
                  util::TablePrinter::fmt(remote_stats.seconds * 1e3, 1),
                  std::to_string(remote_stats.partial_products),
                  std::to_string(remote_tally.cells), agree ? "yes" : "NO"});
  mtable.print("TableMult C += A^T*A (one process vs 3-server fleet)");
  json += ", \"tablemult\": {\"scale\": " + std::to_string(rmat_scale) +
          ", \"nnz\": " + std::to_string(a.nnz()) +
          ", \"local_ms\": " +
          util::TablePrinter::fmt(local_stats.seconds * 1e3, 3) +
          ", \"remote_ms\": " +
          util::TablePrinter::fmt(remote_stats.seconds * 1e3, 3) +
          ", \"result_cells\": " + std::to_string(remote_tally.cells) +
          ", \"agree\": " + (agree ? "true" : "false") + "}";

  json += "}\n";
  std::ofstream("BENCH_distributed.json") << json;
  std::printf("wrote BENCH_distributed.json (%s)\n",
              agree ? "local and distributed products agree"
                    : "DISAGREEMENT between local and distributed products");
  return agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::MetricsDump metrics_dump(argc, argv);
  const std::string base =
      std::filesystem::temp_directory_path().string() + "/graphulo_bench_tsd_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(base);
  int status = 1;
  try {
    status = run(smoke, base);  // the fleet is reaped before this returns
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_distributed: %s\n", e.what());
  }
  std::filesystem::remove_all(base);
  return status;
}
