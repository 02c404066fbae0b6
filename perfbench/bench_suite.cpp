// bench_suite — the repository benchmark: four Graphulo workloads, one
// process per workload, inputs generated from --seed.
//
//   bench_suite --workload <name> --seed <n> [--seconds <s>] [--trace]
//               [--smoke] --out <file> [--trace-out <file>]
//               [--work-dir <dir>]
//
// Workloads (README.md says why each was chosen):
//   mult-write       core::table_mult(A, A, C, compact_result) on an RMAT
//                    scale-10 adjacency, a fresh embedded Instance per rep
//   tricount-masked  core::table_triangle_count_masked on an RMAT scale-13
//                    adjacency flushed and compacted to RFiles
//   ingest-query     an open loop of 200-mutation BatchWriter batches at
//                    5,000 mutations/s beside 20 one-hop adj_bfs queries/s
//                    on a sum table preloaded with 400K RMAT edges
//   mult-remote      distributed::table_mult on the mult-write matrix
//                    against three forked graphulo_tsd daemons
//
// Local workloads run on the embedded deployment: Instance(4), a
// WriteAheadLog in the default interval sync mode, CompactionScheduler(2)
// and the default TableConfig (block cache off).
//
// An untraced run measures the end-to-end numbers. A --trace run
// measures per layer from outside the program: kernel ops go through a
// TimingDataPlane (timing_plane.hpp), the harness times its own
// BatchWriter::flush and adj_bfs calls, and counts are deltas of the
// metrics registry (registry.hpp). Every op is checked against an
// in-memory oracle outside the timed region; a mismatch makes the run
// incorrect and the exit code nonzero. The result envelope
// (envelope.hpp) goes to --out; a traced run also writes its spans as a
// Chrome trace to --trace-out.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/tricount.hpp"
#include "assoc/table_io.hpp"
#include "core/table_algos.hpp"
#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "distributed/cluster.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/codec.hpp"
#include "nosql/compaction_scheduler.hpp"
#include "nosql/instance.hpp"
#include "nosql/scanner.hpp"
#include "nosql/wal.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#include "calibrate.hpp"
#include "envelope.hpp"
#include "fleet.hpp"
#include "registry.hpp"
#include "timing_plane.hpp"

#ifndef GRAPHULO_TSD_PATH
#define GRAPHULO_TSD_PATH "graphulo_tsd"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace algo = graphulo::algo;
namespace assoc = graphulo::assoc;
namespace gen = graphulo::gen;
namespace la = graphulo::la;

using Layers = std::map<std::string, double>;

// Setups per run of the workloads that set up once and then run many ops.
constexpr int kSetups = 5;

// Every per-layer metric a traced run reports, in BENCHMARK.json order.
// A metric that does not apply to a workload reads 0.
constexpr std::array kLayerNames = {
    "tablemult.partials",
    "tablemult.partition_s_max",
    "tablemult.partition_imbalance",
    "tablemult.partials_per_result_cell",
    "tablemult.worker_speedup",
    "tablemult.server_over_client",
    "tablemult.control_s",
    "tablemult.compact_s",
    "tablemult.join_self_s",
    "tablemult.rows_joined",
    "tablemult.mask_keep_ratio",
    "scan.busy_s",
    "scan.cells",
    "scan.seeks",
    "scan.ns_per_cell",
    "scan.ranges",
    "scan.files_consulted_p50",
    "sink.busy_s",
    "sink.close_s",
    "sink.cells",
    "sink.mutations",
    "sink.ns_per_cell",
    "batch_writer.flush_s",
    "write.flush_p99_ms",
    "wal.commit_bytes",
    "wal.bytes_per_cell",
    "wal.commit_batches",
    "wal.commit_s",
    "tablet.flushes",
    "tablet.compactions",
    "compaction.task_s",
    "write_amp",
    "tablet.relief",
    "rpc.requests",
    "rpc.bytes_sent",
    "rpc.bytes_recv",
    "rpc.bytes_per_partial",
    "distributed.scan_reopens",
    "distributed.write_deduped",
    "daemon.peak_rss_mb",
    "op.p50_ms",
    "calib.p25_ms",
    "query.busy_s",
    "query.cells",
    "op.samples",
    "op.tail_ms",
    "ingest.write_p50_ms",
    "ingest.write_p90_ms",
    "ingest.write_p99_ms",
    "ingest.query_p90_ms",
    "ingest.query_p99_ms",
    "ingest.query_idle_p50_ms",
    "gen.late_frac",
    "trace.overhead_frac",
};

// ---- statistics -----------------------------------------------------------

double pct(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : graphulo::util::percentile(v, q);
}

double median(const std::vector<double>& v) { return pct(v, 0.5); }

/// The highest percentile with at least ten samples beyond it (the
/// largest sample when there are ten or fewer).
double tail(const std::vector<double>& v) {
  if (v.size() <= 10) return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  return pct(v, static_cast<double>(v.size() - 10) / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

// ---- the run ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string trace_out;
  std::string work_dir;
};

/// One bench_suite invocation: its arguments, the envelope it fills, the
/// spans of a traced run, the calibration samples, and a scratch
/// directory for data files.
struct Run {
  Args args;
  Envelope env;
  SpanLog spans;
  Calibration calibration;
  std::vector<double> calib_s;
  Clock::time_point epoch = Clock::now();
  std::uint64_t next_op = 1;

  /// Runs the calibration task until it has taken at least `budget_s`
  /// (at least once).
  void calibrate(double budget_s = 0.0) {
    double spent = 0.0;
    do {
      calib_s.push_back(calibration.run());
      spent += calib_s.back();
    } while (spent < budget_s);
  }

  /// The end-to-end latency metrics from the op samples (seconds). The
  /// machine's speed is the calibration's lower quartile: interference
  /// only ever adds time, so it is the steadiest estimate.
  void report_latency(const std::vector<double>& op_s) {
    const double calib = pct(calib_s, 0.25);
    env.samples["calib_s"] = calib_s;
    env.metrics["op_p50_ms"] = 1e3 * median(op_s);
    env.metrics["op_p50_rel"] = ratio(median(op_s), calib);
    if (args.trace) {
      env.layers["op.p50_ms"] = 1e3 * median(op_s);
      env.layers["calib.p25_ms"] = 1e3 * calib;
    }
  }

  fs::path scratch(const std::string& name) const {
    return fs::path(args.work_dir) / name;
  }

  /// When a run that starts measuring now must stop.
  Clock::time_point measuring_deadline() const {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(args.seconds));
  }

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  }

  void mismatch(const std::string& what) {
    env.correct = false;
    std::fprintf(stderr, "bench_suite: MISMATCH: %s\n", what.c_str());
  }
};

/// The embedded deployment: Instance(4), a WriteAheadLog in the default
/// interval sync mode (the same flush policy on every commit),
/// CompactionScheduler(2), default TableConfig. Its directory goes with
/// it.
class Embedded {
 public:
  explicit Embedded(fs::path dir) : dir_(std::move(dir)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    db_ = std::make_unique<nosql::Instance>(4);
    db_->attach_wal(
        std::make_shared<nosql::WriteAheadLog>((dir_ / "wal.log").string()));
    db_->attach_compaction_scheduler(
        std::make_shared<nosql::CompactionScheduler>(2));
  }
  ~Embedded() {
    try {
      db_->quiesce_compactions();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: compaction drain failed: %s\n",
                   e.what());
    }
    db_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Embedded(const Embedded&) = delete;
  Embedded& operator=(const Embedded&) = delete;

  nosql::Instance& db() { return *db_; }

 private:
  fs::path dir_;
  std::unique_ptr<nosql::Instance> db_;
};

// ---- inputs -----------------------------------------------------------------

/// Kernel work on row k of A.
using RowWork = double (*)(const la::SpMat<double>&, std::size_t);

/// Partial products C = A^T·A draws from row k: nnz(A(k,:))^2.
double row_partials(const la::SpMat<double>& a, std::size_t k) {
  const auto ptr = a.row_ptr();
  const double d = static_cast<double>(ptr[k + 1] - ptr[k]);
  return d * d;
}

/// Candidate products (emitted plus pruned) the masked triangle kernel
/// draws from row k: |U(k,:)|^2, U the strict upper triangle.
double row_candidates(const la::SpMat<double>& a, std::size_t k) {
  const auto ptr = a.row_ptr();
  const auto col = a.col_idx();
  double u = 0.0;
  for (auto i = ptr[k]; i < ptr[k + 1]; ++i) {
    if (static_cast<std::size_t>(col[static_cast<std::size_t>(i)]) > k) u += 1.0;
  }
  return u * u;
}

/// `work` summed over all rows, and over the largest of `parts` row
/// ranges cut at n·s/parts. That is the tablet (or server) cut, and the
/// kernel partitions along it, so the largest range is its critical path.
struct Work {
  double total = 0.0;
  double largest = 0.0;
};

Work work_split(const la::SpMat<double>& a, RowWork work, la::Index parts) {
  std::vector<double> share(static_cast<std::size_t>(parts), 0.0);
  const la::Index n = a.rows();
  la::Index part = 0;
  for (la::Index k = 0; k < n; ++k) {
    while (part + 1 < parts && k >= n * (part + 1) / parts) ++part;
    share[static_cast<std::size_t>(part)] += work(a, static_cast<std::size_t>(k));
  }
  Work w;
  for (const double x : share) {
    w.total += x;
    w.largest = std::max(w.largest, x);
  }
  return w;
}

bool near(double value, double target, double tolerance) {
  return std::abs(value / target - 1.0) <= tolerance;
}

/// An RMAT graph (edge factor 6) at a stated size: candidates are drawn
/// from seed, seed + K, seed + 2K, ... and the first that `accept` takes
/// is used. RMAT degrees are heavy-tailed, so without this the kernel
/// work of one seed's graph differs from another's by up to 60%, and the
/// work on the largest partition (which sets the op's time) by 50%.
la::SpMat<double> rmat_at_size(int scale, std::uint64_t seed,
                               const std::function<bool(const la::SpMat<double>&)>& accept) {
  constexpr std::uint64_t kStride = 1000003;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    gen::RmatParams p;
    p.scale = scale;
    p.edge_factor = 6;
    p.seed = seed + i * kStride;
    auto a = gen::rmat_simple_adjacency(p);
    if (accept(a)) {
      std::fprintf(stderr, "input: RMAT seed %llu (candidate %llu)\n",
                   static_cast<unsigned long long>(p.seed),
                   static_cast<unsigned long long>(i));
      return a;
    }
  }
  throw std::runtime_error("no RMAT graph of the stated size for this seed");
}

/// The mult-write and mult-remote input: 545,000 ± 2% partial products,
/// of which the largest of the 4 tablets draws 192,000 ± 4% and the
/// largest of the 3 servers 247,000 ± 4%.
la::SpMat<double> mult_input(const Run& run) {
  if (run.args.smoke) return rmat_at_size(7, run.args.seed, [](const auto&) { return true; });
  return rmat_at_size(10, run.args.seed, [](const la::SpMat<double>& a) {
    const Work tablets = work_split(a, row_partials, 4);
    return near(tablets.total, 545e3, 0.02) && near(tablets.largest, 192e3, 0.04) &&
           near(work_split(a, row_partials, 3).largest, 247e3, 0.04);
  });
}

/// The tricount-masked input: 3.9M ± 2% candidate products, of which the
/// largest of the 4 tablets draws 2.1M ± 3%.
la::SpMat<double> tricount_input(const Run& run) {
  if (run.args.smoke) return rmat_at_size(9, run.args.seed, [](const auto&) { return true; });
  return rmat_at_size(13, run.args.seed, [](const la::SpMat<double>& a) {
    const Work tablets = work_split(a, row_candidates, 4);
    return near(tablets.total, 3.9e6, 0.02) && near(tablets.largest, 2.1e6, 0.03);
  });
}

/// Row keys cutting [0, n) into `parts` ranges at n·s/parts.
std::vector<std::string> splits(la::Index n, la::Index parts) {
  std::vector<std::string> keys;
  for (la::Index s = 1; s < parts; ++s) keys.push_back(assoc::vertex_key(n * s / parts));
  return keys;
}

/// Loads `a` into `table` cut into four tablets.
void load_matrix(nosql::Instance& db, const std::string& table,
                 const la::SpMat<double>& a) {
  assoc::write_matrix(db, table, a);
  db.add_splits(table, splits(a.rows(), 4));
}

// ---- per-layer numbers of one traced kernel op -------------------------------

/// Per-layer numbers of one traced TableMult op, from the plane's call
/// totals, the kernel's own stats and the registry delta around the op.
/// `result_cells` is the size of the materialized result (0 for the
/// fused reduce).
Layers kernel_layers(const PlaneOp& plane, const core::TableMultStats& stats,
                     const RegistryReading& d, double result_cells) {
  Layers l;
  const CallTotals& t = plane.totals;
  double part_max = 0.0, part_sum = 0.0, part_calls_s = 0.0;
  for (const auto& p : stats.partitions) {
    part_max = std::max(part_max, p.seconds);
    part_sum += p.seconds;
  }
  for (const auto& r : plane.partitions) {
    if (!r.is_partition()) continue;
    part_calls_s += 1e-9 * static_cast<double>(r.totals.scan_ns + r.totals.sink_ns +
                                               r.totals.close_ns);
  }
  const double partials = static_cast<double>(stats.partial_products);
  const double pruned = static_cast<double>(stats.partial_products_pruned);
  const double sink_cells = static_cast<double>(t.sink_cells);
  const double sink_s = 1e-9 * static_cast<double>(t.sink_ns);
  const double close_s = 1e-9 * static_cast<double>(t.close_ns);
  const double scan_s = 1e-9 * static_cast<double>(t.scan_ns);
  l["tablemult.partials"] = partials;
  l["tablemult.partition_s_max"] = part_max;
  l["tablemult.partition_imbalance"] =
      stats.partitions.empty()
          ? 0.0
          : ratio(part_max, part_sum / static_cast<double>(stats.partitions.size()));
  l["tablemult.partials_per_result_cell"] = ratio(partials, result_cells);
  l["tablemult.control_s"] = 1e-9 * static_cast<double>(plane.control_ns);
  l["tablemult.compact_s"] = 1e-9 * static_cast<double>(plane.compact_ns);
  l["tablemult.join_self_s"] = std::max(0.0, part_sum - part_calls_s);
  l["tablemult.rows_joined"] = static_cast<double>(stats.rows_joined);
  l["tablemult.mask_keep_ratio"] = ratio(partials, partials + pruned);
  l["scan.busy_s"] = scan_s;
  l["scan.cells"] = static_cast<double>(t.cells);
  l["scan.seeks"] = static_cast<double>(t.seeks);
  l["scan.ns_per_cell"] = ratio(1e9 * scan_s, static_cast<double>(t.cells));
  l["scan.ranges"] = static_cast<double>(t.ranges);
  l["scan.files_consulted_p50"] = d.quantile("scan.files_consulted", 0.5);
  l["sink.busy_s"] = sink_s;
  l["sink.close_s"] = close_s;
  l["sink.cells"] = sink_cells;
  l["sink.mutations"] = static_cast<double>(t.sink_mutations);
  l["sink.ns_per_cell"] = ratio(1e9 * (sink_s + close_s), sink_cells);
  l["wal.commit_bytes"] = d.get("wal.commit.bytes.total");
  l["wal.bytes_per_cell"] = ratio(d.get("wal.commit.bytes.total"), sink_cells);
  l["wal.commit_batches"] = d.get("wal.commit.batches.total");
  l["wal.commit_s"] = d.get("wal.commit.seconds.sum");
  l["tablet.flushes"] = d.get("tablet.flush.total");
  l["tablet.compactions"] = d.get("tablet.compaction.total");
  l["compaction.task_s"] = d.get("compaction.task.seconds.sum");
  l["write_amp"] = ratio(d.get("tablet.flush.cells.total") +
                             d.get("tablet.compaction.cells.total"),
                         sink_cells);
  l["tablet.relief"] = d.get("tablet.relief.total");
  const double sent = d.get("rpc.client.bytes.sent");
  const double recv = d.get("rpc.client.bytes.recv");
  l["rpc.requests"] = d.get("rpc.client.requests.total");
  l["rpc.bytes_sent"] = sent;
  l["rpc.bytes_recv"] = recv;
  l["rpc.bytes_per_partial"] = ratio(sent + recv, partials);
  l["distributed.scan_reopens"] = d.get("distributed.scan.reopens.total");
  l["distributed.write_deduped"] = d.get("distributed.write.deduped.total");
  return l;
}

/// Spans of one traced op: the op, then per partition its wall time and
/// the totals of its scan and sink calls.
void record_op_spans(Run& run, std::uint64_t op_id, Clock::time_point start,
                     Clock::time_point end, const PlaneOp& plane) {
  run.spans.add("op", obs::thread_stripe(), run.us(start),
                seconds_between(start, end) * 1e6, op_id);
  for (const auto& r : plane.partitions) {
    const double at = run.us(r.start);
    run.spans.add(r.is_partition() ? "partition" : "mask.load", r.thread, at,
                  seconds_between(r.start, r.end) * 1e6, op_id);
    if (r.totals.ranges > 0) {
      run.spans.add("scan.calls", r.thread, at, 1e-3 * static_cast<double>(r.totals.scan_ns),
                    op_id);
    }
    if (r.wrote) {
      run.spans.add("sink.calls", r.thread, at,
                    1e-3 * static_cast<double>(r.totals.sink_ns + r.totals.close_ns),
                    op_id);
    }
  }
}

/// Timed reps of one kernel workload. Untraced runs time every measured
/// rep plainly; traced runs alternate plain and traced reps, so
/// trace.overhead_frac compares ops of the same run.
struct KernelSamples {
  std::vector<double> setup_s;
  std::vector<double> op_s;
  std::vector<double> traced_op_s;
  std::vector<double> one_worker_s;  ///< traced runs: one-worker reps
  std::vector<double> client_s;      ///< traced runs: client-side reps
  std::vector<Layers> layers;
};

/// Runs `warmups` unmeasured reps, then measured reps until `deadline`
/// (at least `min_reps`). Before each measured rep the calibration task
/// runs for about a tenth of the previous rep's time.
/// `rep(measured, traced)` performs one rep.
void drive(Run& run, int warmups, int min_reps, Clock::time_point deadline,
           const std::function<void(bool, bool)>& rep) {
  run.calibration.run();
  double last_rep_s = 0.0;
  const auto timed = [&](bool measured, bool traced) {
    const auto start = Clock::now();
    rep(measured, traced);
    last_rep_s = seconds_between(start, Clock::now());
  };
  for (int i = 0; i < warmups; ++i) timed(false, false);
  for (int i = 0; i < min_reps || Clock::now() < deadline; ++i) {
    run.calibrate(0.1 * last_rep_s);
    timed(true, run.args.trace && i % 2 == 1);
  }
}

/// Times `op` once, counting a throw as a failed op.
template <class Op>
bool attempt(Run& run, double* seconds, Op&& op) {
  ++run.env.attempted;
  const auto start = Clock::now();
  try {
    op();
  } catch (const std::exception& e) {
    ++run.env.failed;
    std::fprintf(stderr, "bench_suite: op failed: %s\n", e.what());
    return false;
  }
  *seconds = seconds_between(start, Clock::now());
  return true;
}

/// End-to-end metrics and (traced) per-layer medians of a kernel run.
void finish_kernel(Run& run, const KernelSamples& s, const Layers& extra = {}) {
  run.env.samples["setup_s"] = s.setup_s;
  run.env.samples["op_s"] = s.op_s;
  run.env.metrics["setup_s"] = median(s.setup_s);
  run.report_latency(s.op_s);
  if (!run.args.trace) return;
  run.env.samples["traced_op_s"] = s.traced_op_s;
  for (const char* name : kLayerNames) {
    std::vector<double> values;
    for (const auto& l : s.layers) {
      const auto it = l.find(name);
      if (it != l.end()) values.push_back(it->second);
    }
    if (!values.empty()) run.env.layers[name] = median(values);
  }
  for (const auto& [name, v] : extra) run.env.layers[name] = v;
  const double op = median(s.op_s);
  if (!s.one_worker_s.empty()) {
    run.env.layers["tablemult.worker_speedup"] = ratio(median(s.one_worker_s), op);
  }
  if (!s.client_s.empty()) {
    run.env.layers["tablemult.server_over_client"] = ratio(op, median(s.client_s));
  }
  run.env.layers["op.samples"] = static_cast<double>(s.op_s.size());
  run.env.layers["op.tail_ms"] = 1e3 * tail(s.op_s);
  run.env.layers["trace.overhead_frac"] =
      ratio(median(s.traced_op_s), median(s.op_s)) - 1.0;
}

// ---- mult-write ---------------------------------------------------------------

bool same_matrix(nosql::Instance& db, const std::string& table,
                 const la::SpMat<double>& expected) {
  return assoc::read_matrix(db, table, expected.rows(), expected.cols()) == expected;
}

void run_mult_write(Run& run) {
  const auto a = mult_input(run);
  const auto oracle = la::spgemm<la::PlusTimes<double>>(la::transpose(a), a);
  std::fprintf(stderr, "mult-write: n=%lld nnz=%lld partials=%.0f result=%lld\n",
               static_cast<long long>(a.rows()), static_cast<long long>(a.nnz()),
               work_split(a, row_partials, 4).total, static_cast<long long>(oracle.nnz()));
  const core::TableMultOptions options{.compact_result = true};
  KernelSamples s;
  int rep_index = 0;
  const auto fresh = [&](KernelSamples* record) {
    const auto start = Clock::now();
    auto e = std::make_unique<Embedded>(run.scratch("rep" + std::to_string(rep_index++)));
    load_matrix(e->db(), "A", a);
    e->db().quiesce_compactions();
    if (record) record->setup_s.push_back(seconds_between(start, Clock::now()));
    return e;
  };
  const auto check = [&](nosql::Instance& db, const std::string& table) {
    if (!same_matrix(db, table, oracle)) run.mismatch(table + " != spgemm(A^T, A)");
  };

  const auto deadline = run.measuring_deadline();
  if (run.args.trace) {
    // One-worker and client-side reps for the speedup ratios.
    for (int i = 0; i < 3; ++i) {
      auto e = fresh(nullptr);
      auto serial = options;
      serial.num_workers = 1;
      double t = 0;
      if (attempt(run, &t, [&] { core::table_mult(e->db(), "A", "A", "C", serial); })) {
        s.one_worker_s.push_back(t);
      }
      check(e->db(), "C");
      if (attempt(run, &t, [&] {
            core::client_side_mult(e->db(), "A", "A", "Cc", a.rows(), a.cols(), a.cols());
          })) {
        s.client_s.push_back(t);
      }
      check(e->db(), "Cc");
    }
  }
  drive(run, 2, 3, deadline, [&](bool measured, bool traced) {
    auto e = fresh(measured ? &s : nullptr);
    double t = 0;
    if (!traced) {
      if (attempt(run, &t, [&] { core::table_mult(e->db(), "A", "A", "C", options); }) &&
          measured) {
        s.op_s.push_back(t);
      }
      e->db().quiesce_compactions();
    } else {
      core::LocalDataPlane local(e->db());
      TimingDataPlane plane(local);
      core::TableMultStats stats;
      const auto before = read_registry();
      const auto start = Clock::now();
      if (attempt(run, &t, [&] { stats = core::table_mult(plane, "A", "A", "C", options); })) {
        const auto end = Clock::now();
        e->db().quiesce_compactions();  // background work the op caused
        const auto delta = read_registry().since(before);
        const auto op = plane.take();
        s.traced_op_s.push_back(t);
        s.layers.push_back(kernel_layers(op, stats, delta, static_cast<double>(oracle.nnz())));
        record_op_spans(run, run.next_op++, start, end, op);
      }
    }
    check(e->db(), "C");
  });
  finish_kernel(run, s);
}

// ---- tricount-masked ------------------------------------------------------------

/// The options table_triangle_count_masked runs its fused reduce with,
/// for the traced and one-worker reps that must reach table_mult_reduce
/// directly.
core::TableMultOptions masked_triangle_options(const std::string& adj) {
  core::TableMultOptions options;
  options.row_filter = core::strict_upper_filter();
  options.col_filter = core::strict_upper_filter();
  options.mask_table = adj;
  options.mask_filter = core::strict_lower_filter();
  return options;
}

void run_tricount_masked(Run& run) {
  const auto a = tricount_input(run);
  const std::uint64_t oracle = algo::triangle_count_masked(a);
  const Work work = work_split(a, row_candidates, 4);
  std::fprintf(stderr,
               "tricount-masked: n=%lld nnz=%lld candidates=%.0f (largest tablet %.0f) "
               "triangles=%llu\n",
               static_cast<long long>(a.rows()), static_cast<long long>(a.nnz()), work.total,
               work.largest, static_cast<unsigned long long>(oracle));
  KernelSamples s;
  // Set up several times for a steady setup_s; the last instance serves.
  std::unique_ptr<Embedded> e;
  for (int i = 0; i < kSetups; ++i) {
    e.reset();
    const auto start = Clock::now();
    e = std::make_unique<Embedded>(run.scratch("setup" + std::to_string(i)));
    load_matrix(e->db(), "G", a);
    e->db().flush("G");
    e->db().compact("G");
    e->db().quiesce_compactions();
    s.setup_s.push_back(seconds_between(start, Clock::now()));
  }
  nosql::Instance& db = e->db();
  const auto check = [&](std::uint64_t got) {
    if (got != oracle) {
      run.mismatch("triangles " + std::to_string(got) + " != " + std::to_string(oracle));
    }
  };
  const auto reduce = [&](core::TableMultDataPlane& plane, const core::TableMultOptions& o,
                          core::TableMultStats* stats) {
    const auto r = core::table_mult_reduce(plane, "G", "G", o);
    if (stats) *stats = r.stats;
    check(static_cast<std::uint64_t>(std::llround(r.total)));
  };

  const auto deadline = run.measuring_deadline();
  if (run.args.trace) {
    // One-worker and client-side reps for the speedup ratios.
    core::LocalDataPlane local(db);
    for (int i = 0; i < 3; ++i) {
      auto serial = masked_triangle_options("G");
      serial.num_workers = 1;
      double t = 0;
      if (attempt(run, &t, [&] { reduce(local, serial, nullptr); })) {
        s.one_worker_s.push_back(t);
      }
      std::uint64_t got = 0;
      if (attempt(run, &t, [&] {
            got = algo::triangle_count_masked(assoc::read_matrix(db, "G", a.rows(), a.cols()));
          })) {
        s.client_s.push_back(t);
        check(got);
      }
    }
  }
  drive(run, 3, 5, deadline, [&](bool measured, bool traced) {
    double t = 0;
    if (!traced) {
      std::uint64_t got = 0;
      if (attempt(run, &t, [&] { got = core::table_triangle_count_masked(db, "G"); })) {
        if (measured) s.op_s.push_back(t);
        check(got);
      }
      return;
    }
    core::LocalDataPlane local(db);
    TimingDataPlane plane(local);
    core::TableMultStats stats;
    const auto before = read_registry();
    const auto start = Clock::now();
    if (attempt(run, &t, [&] { reduce(plane, masked_triangle_options("G"), &stats); })) {
      const auto end = Clock::now();
      const auto delta = read_registry().since(before);
      const auto op = plane.take();
      s.traced_op_s.push_back(t);
      s.layers.push_back(kernel_layers(op, stats, delta, 0.0));
      record_op_spans(run, run.next_op++, start, end, op);
    }
  });
  finish_kernel(run, s);
}

// ---- mult-remote ------------------------------------------------------------------

void run_mult_remote(Run& run) {
  const auto a = mult_input(run);
  const auto oracle =
      la::spgemm<la::PlusTimes<double>>(la::transpose(a), a).to_triples();
  std::fprintf(stderr, "mult-remote: n=%lld nnz=%lld partials=%.0f result=%zu\n",
               static_cast<long long>(a.rows()), static_cast<long long>(a.nnz()),
               work_split(a, row_partials, 3).total, oracle.size());
  const auto boundaries = splits(a.rows(), 3);
  const core::TableMultOptions options{.compact_result = true};
  KernelSamples s;
  double daemon_rss = 0.0;
  int rep_index = 0;

  // Cell-exact tally of the remote C against the oracle, in key order.
  const auto check = [&](distributed::Cluster& cluster) {
    auto it = cluster.scan("C", nosql::Range::all());
    std::size_t i = 0;
    for (; it->has_top(); it->next(), ++i) {
      const auto& k = it->top_key();
      const auto v = nosql::decode_double(it->top_value());
      if (i >= oracle.size() || assoc::parse_vertex_key(k.row) != oracle[i].row ||
          assoc::parse_vertex_key(k.qualifier) != oracle[i].col || !v ||
          *v != oracle[i].val) {
        run.mismatch("remote C differs from spgemm(A^T, A) at cell " + std::to_string(i));
        return;
      }
    }
    if (i != oracle.size()) {
      run.mismatch("remote C has " + std::to_string(i) + " cells, oracle " +
                   std::to_string(oracle.size()));
    }
  };

  const auto deadline = run.measuring_deadline();
  drive(run, 1, 3, deadline, [&](bool measured, bool traced) {
    const fs::path dir = run.scratch("fleet" + std::to_string(rep_index++));
    fs::remove_all(dir);
    const auto start = Clock::now();
    Fleet fleet(GRAPHULO_TSD_PATH, dir.string(), boundaries);
    auto cluster = fleet.cluster();
    cluster.ensure_table("A", false);
    {
      auto writer = cluster.writer("A", "loader");
      for (const auto& t : a.to_triples()) {
        nosql::Mutation m(assoc::vertex_key(t.row));
        m.put(assoc::kValueFamily, assoc::vertex_key(t.col), nosql::encode_double(t.val));
        writer->add_mutation(std::move(m));
      }
      writer->close();
    }
    if (measured) s.setup_s.push_back(seconds_between(start, Clock::now()));
    double t = 0;
    if (!traced) {
      if (attempt(run, &t, [&] { distributed::table_mult(cluster, "A", "A", "C", options); }) &&
          measured) {
        s.op_s.push_back(t);
      }
    } else {
      distributed::ClusterDataPlane remote(cluster);
      TimingDataPlane plane(remote);
      // The fan-out distributed::table_mult defaults to.
      auto resolved = options;
      resolved.num_workers = std::max<std::size_t>(cluster.num_servers(),
                                                   std::thread::hardware_concurrency());
      core::TableMultStats stats;
      const auto before = read_registry();
      const auto op_start = Clock::now();
      if (attempt(run, &t, [&] { stats = core::table_mult(plane, "A", "A", "C", resolved); })) {
        const auto end = Clock::now();
        const auto delta = read_registry().since(before);
        const auto op = plane.take();
        s.traced_op_s.push_back(t);
        s.layers.push_back(kernel_layers(op, stats, delta, static_cast<double>(oracle.size())));
        record_op_spans(run, run.next_op++, op_start, end, op);
      }
    }
    check(cluster);
    daemon_rss = std::max(daemon_rss, fleet.max_peak_rss_mb());
    // The fleet is killed and reaped here, then its data removed.
    std::error_code ec;
    fs::remove_all(dir, ec);
  });
  finish_kernel(run, s, {{"daemon.peak_rss_mb", daemon_rss}});
}

// ---- ingest-query -----------------------------------------------------------------

/// One open-loop op: when it was due, when it started and ended.
struct OpTimes {
  double due_s = 0;
  double start_s = 0;
  double end_s = 0;
  double inner_s = 0;  ///< BatchWriter::flush or adj_bfs alone
  bool ok = false;
};

std::vector<std::string> one_hop(const std::vector<std::vector<la::Index>>& adj,
                                 const std::vector<la::Index>& seeds) {
  std::set<la::Index> out(seeds.begin(), seeds.end());
  for (const auto s : seeds) {
    out.insert(adj[static_cast<std::size_t>(s)].begin(),
               adj[static_cast<std::size_t>(s)].end());
  }
  std::vector<std::string> keys;
  for (const auto v : out) keys.push_back(assoc::vertex_key(v));
  return keys;
}

std::vector<std::string> keys_of(const std::map<std::string, int>& levels) {
  std::vector<std::string> keys;
  for (const auto& [k, level] : levels) keys.push_back(k);
  return keys;
}

void run_ingest_query(Run& run) {
  const bool smoke = run.args.smoke;
  const int scale = smoke ? 12 : 17;
  const std::size_t preload = smoke ? 20000 : 400000;
  const double window_s = run.args.seconds;
  constexpr std::size_t kBatch = 200;
  constexpr double kMutationsPerS = 5000.0;
  constexpr double kQueriesPerS = 20.0;
  constexpr la::Index kTablets = 4;  // also the seeds per query
  const double batch_interval_s = static_cast<double>(kBatch) / kMutationsPerS;
  const std::size_t max_batches =
      static_cast<std::size_t>(window_s / batch_interval_s) + 1;
  const std::size_t max_queries = static_cast<std::size_t>(window_s * kQueriesPerS) + 1;

  gen::RmatParams p;
  p.scale = scale;
  p.undirected = false;
  p.seed = run.args.seed;
  const la::Index n = la::Index{1} << scale;
  const std::size_t total = preload + max_batches * kBatch;
  p.edge_factor = static_cast<double>(total) / static_cast<double>(n) + 1e-6;
  const auto edges = gen::rmat_edges(p);
  if (edges.size() < total) throw std::runtime_error("RMAT stream too short");

  std::vector<std::vector<la::Index>> adj(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < preload; ++i) {
    adj[static_cast<std::size_t>(edges[i].first)].push_back(edges[i].second);
  }
  // The preloaded sources, by tablet. A query takes one seed from each
  // tablet, so every query fans out to all four: four seeds on one tablet
  // would serialize four memtable copies on its lock, and a query's cost
  // would hinge on how its seeds happened to fall.
  std::vector<la::Index> sources;
  std::vector<std::vector<la::Index>> tablet_sources(static_cast<std::size_t>(kTablets));
  for (la::Index v = 0; v < n; ++v) {
    if (adj[static_cast<std::size_t>(v)].empty()) continue;
    sources.push_back(v);
    tablet_sources[static_cast<std::size_t>(v * kTablets / n)].push_back(v);
  }
  graphulo::util::Xoshiro256 rng(run.args.seed * 7919 + 17);
  const auto draw_seeds = [&] {
    std::vector<la::Index> seeds;
    for (const auto& in_tablet : tablet_sources) {
      seeds.push_back(in_tablet[rng.uniform_int(in_tablet.size())]);
    }
    return seeds;
  };
  std::vector<std::vector<la::Index>> query_seeds(max_queries);
  for (auto& q : query_seeds) q = draw_seeds();
  const auto edge_mutation = [&](std::size_t i) {
    nosql::Mutation m(assoc::vertex_key(edges[i].first));
    m.put(assoc::kValueFamily, assoc::vertex_key(edges[i].second), nosql::encode_double(1.0));
    return m;
  };
  std::fprintf(stderr, "ingest-query: n=%lld preload=%zu sources=%zu window=%.1fs\n",
               static_cast<long long>(n), preload, sources.size(), window_s);

  // Set up several times for a steady setup_s; the last instance serves.
  std::vector<double> setup_s;
  std::unique_ptr<Embedded> e;
  for (int i = 0; i < kSetups; ++i) {
    e.reset();
    const auto start = Clock::now();
    e = std::make_unique<Embedded>(run.scratch("setup" + std::to_string(i)));
    core::create_sum_table(e->db(), "G");
    e->db().add_splits("G", splits(n, kTablets));
    nosql::BatchWriter loader(e->db(), "G");
    for (std::size_t j = 0; j < preload; ++j) loader.add_mutation(edge_mutation(j));
    loader.close();
    e->db().flush("G");
    e->db().compact("G");
    e->db().quiesce_compactions();
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  nosql::Instance& db = e->db();

  // Calibrate around the window: running beside the open loop would load
  // the machine the loop measures.
  constexpr int kCalibrations = 20;
  run.calibration.run();
  for (int i = 0; i < kCalibrations; ++i) run.calibrate();

  // ---- the open loop: 2 writer threads + 1 query thread --------------------
  std::vector<OpTimes> writes(max_batches);
  std::vector<OpTimes> queries(max_queries);
  std::vector<std::vector<std::string>> answers(max_queries);
  // The ops due inside the window: a prefix of each schedule.
  const auto write_due = [&](std::size_t b) { return static_cast<double>(b) * batch_interval_s; };
  const auto query_due = [&](std::size_t q) { return static_cast<double>(q) / kQueriesPerS; };
  std::size_t n_batches = 0, n_queries = 0;
  while (n_batches < max_batches && write_due(n_batches) < window_s) ++n_batches;
  while (n_queries < max_queries && query_due(n_queries) < window_s) ++n_queries;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const auto since_t0 = [&](Clock::time_point t) { return seconds_between(t0, t); };
  // An op that cannot start within this long after the window ends is
  // never sent and counts as failed, which bounds the run's length.
  constexpr double kGraceS = 10.0;
  const auto too_late = [&] { return since_t0(Clock::now()) > window_s + kGraceS; };
  const auto span = [&](const char* name, std::uint64_t id, const OpTimes& o) {
    if (!run.args.trace) return;
    const std::size_t tid = obs::thread_stripe();
    run.spans.add(name, tid, run.us(at(o.start_s)), (o.end_s - o.start_s) * 1e6, id);
    run.spans.add(std::string(name) + ".inner", tid, run.us(at(o.end_s - o.inner_s)),
                  o.inner_s * 1e6, id);
  };

  const auto before = read_registry();
  const auto writer = [&](std::size_t w) {
    nosql::BatchWriter bw(db, "G");
    for (std::size_t b = w; b < n_batches; b += 2) {
      OpTimes& o = writes[b];
      o.due_s = write_due(b);
      if (too_late()) break;
      std::this_thread::sleep_until(at(o.due_s));
      o.start_s = since_t0(Clock::now());
      try {
        for (std::size_t i = 0; i < kBatch; ++i) {
          bw.add_mutation(edge_mutation(preload + b * kBatch + i));
        }
        const auto f0 = Clock::now();
        bw.flush();
        o.inner_s = seconds_between(f0, Clock::now());
        o.ok = true;
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "bench_suite: write batch %zu failed: %s\n", b, ex.what());
      }
      o.end_s = since_t0(Clock::now());
      span("write", b, o);
    }
    bw.abandon();  // each batch was flushed as it was sent
  };
  const auto querier = [&] {
    for (std::size_t q = 0; q < n_queries; ++q) {
      OpTimes& o = queries[q];
      o.due_s = query_due(q);
      if (too_late()) break;
      std::this_thread::sleep_until(at(o.due_s));
      o.start_s = since_t0(Clock::now());
      std::vector<std::string> seeds;
      for (const auto v : query_seeds[q]) seeds.push_back(assoc::vertex_key(v));
      try {
        const auto levels = core::adj_bfs(db, "G", seeds, 1);
        o.end_s = since_t0(Clock::now());
        o.inner_s = o.end_s - o.start_s;
        o.ok = true;
        answers[q] = keys_of(levels);
      } catch (const std::exception& ex) {
        o.end_s = since_t0(Clock::now());
        std::fprintf(stderr, "bench_suite: query %zu failed: %s\n", q, ex.what());
      }
      span("query", max_batches + q, o);
    }
  };
  {
    std::thread w0(writer, 0), w1(writer, 1), qt(querier);
    w0.join();
    w1.join();
    qt.join();
  }
  const auto delta = read_registry().since(before);
  db.quiesce_compactions();
  for (int i = 0; i < kCalibrations; ++i) run.calibrate();

  std::vector<double> write_ms, query_ms, flush_ms;
  std::size_t late = 0, written = 0;
  double flush_busy = 0.0, query_busy = 0.0;
  const auto tally = [&](const OpTimes& o, std::vector<double>& lat) {
    ++run.env.attempted;
    if (!o.ok) {
      ++run.env.failed;
      return false;
    }
    lat.push_back(1e3 * (o.end_s - o.due_s));
    if (o.start_s - o.due_s > 1e-3) ++late;
    return true;
  };
  for (std::size_t b = 0; b < n_batches; ++b) {
    if (!tally(writes[b], write_ms)) continue;
    written += kBatch;
    flush_ms.push_back(1e3 * writes[b].inner_s);
    flush_busy += writes[b].inner_s;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto& [u, v] = edges[preload + b * kBatch + i];
      adj[static_cast<std::size_t>(u)].push_back(v);
    }
  }
  for (std::size_t q = 0; q < n_queries; ++q) {
    if (tally(queries[q], query_ms)) query_busy += queries[q].inner_s;
  }

  // ---- checks (outside the timed window) -------------------------------------
  // Every query saw at least the preload and at most the final edges.
  std::vector<std::vector<la::Index>> preload_adj(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < preload; ++i) {
    preload_adj[static_cast<std::size_t>(edges[i].first)].push_back(edges[i].second);
  }
  for (std::size_t q = 0; q < n_queries; ++q) {
    if (!queries[q].ok) continue;
    const auto lo = one_hop(preload_adj, query_seeds[q]);
    const auto hi = one_hop(adj, query_seeds[q]);
    const auto& got = answers[q];
    if (!std::includes(got.begin(), got.end(), lo.begin(), lo.end()) ||
        !std::includes(hi.begin(), hi.end(), got.begin(), got.end())) {
      run.mismatch("query " + std::to_string(q) + " answer outside [preload, final]");
    }
  }
  // The value sum equals the mutations written, and final answers match.
  double value_sum = 0.0;
  nosql::Scanner(db, "G").for_each([&](const nosql::Key&, const nosql::Value& v) {
    value_sum += nosql::decode_double(v).value_or(0.0);
  });
  if (value_sum != static_cast<double>(preload + written)) {
    run.mismatch("value sum " + std::to_string(value_sum) + " != mutations " +
                 std::to_string(preload + written));
  }
  for (int i = 0; i < 64; ++i) {
    const auto seeds = std::vector<la::Index>{sources[rng.uniform_int(sources.size())]};
    if (keys_of(core::adj_bfs(db, "G", {assoc::vertex_key(seeds[0])}, 1)) !=
        one_hop(adj, seeds)) {
      run.mismatch("final 1-hop answer of " + assoc::vertex_key(seeds[0]));
    }
  }

  run.env.samples["setup_s"] = setup_s;
  run.env.samples["query_ms"] = query_ms;
  run.env.samples["write_ms"] = write_ms;
  run.env.metrics["setup_s"] = median(setup_s);
  std::vector<double> query_s;
  for (const double ms : query_ms) query_s.push_back(ms / 1e3);
  run.report_latency(query_s);
  if (!run.args.trace) return;

  // Queries on the idle table after ingest stops, closed loop.
  std::vector<double> idle_ms;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> seeds;
    for (const auto v : draw_seeds()) seeds.push_back(assoc::vertex_key(v));
    const auto start = Clock::now();
    core::adj_bfs(db, "G", seeds, 1);
    idle_ms.push_back(1e3 * seconds_between(start, Clock::now()));
  }
  const double ops = static_cast<double>(n_batches + n_queries);
  const double cells = static_cast<double>(written);
  Layers& l = run.env.layers;
  l["batch_writer.flush_s"] = flush_busy / window_s;
  l["write.flush_p99_ms"] = pct(flush_ms, 0.99);
  l["wal.commit_bytes"] = delta.get("wal.commit.bytes.total") / window_s;
  l["wal.bytes_per_cell"] = ratio(delta.get("wal.commit.bytes.total"), cells);
  l["wal.commit_batches"] = delta.get("wal.commit.batches.total") / window_s;
  l["wal.commit_s"] = delta.get("wal.commit.seconds.sum") / window_s;
  l["tablet.flushes"] = delta.get("tablet.flush.total") / window_s;
  l["tablet.compactions"] = delta.get("tablet.compaction.total") / window_s;
  l["compaction.task_s"] = delta.get("compaction.task.seconds.sum") / window_s;
  l["write_amp"] = ratio(delta.get("tablet.flush.cells.total") +
                             delta.get("tablet.compaction.cells.total"),
                         cells);
  l["tablet.relief"] = delta.get("tablet.relief.total") / window_s;
  l["scan.files_consulted_p50"] = delta.quantile("scan.files_consulted", 0.5);
  l["query.busy_s"] = query_busy / window_s;
  l["query.cells"] = ratio(delta.get("scan.cells.total"), static_cast<double>(query_ms.size()));
  l["op.samples"] = static_cast<double>(query_ms.size());
  l["op.tail_ms"] = tail(query_ms);
  l["ingest.write_p50_ms"] = median(write_ms);
  l["ingest.write_p90_ms"] = pct(write_ms, 0.90);
  l["ingest.write_p99_ms"] = pct(write_ms, 0.99);
  l["ingest.query_p90_ms"] = pct(query_ms, 0.90);
  l["ingest.query_p99_ms"] = pct(query_ms, 0.99);
  l["ingest.query_idle_p50_ms"] = median(idle_ms);
  l["gen.late_frac"] = ratio(static_cast<double>(late), ops);
}

// ---- main ----------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload mult-write|tricount-masked|"
               "ingest-query|mult-remote\n"
               "                   --seed N --out FILE [--seconds S] [--trace]"
               " [--smoke]\n"
               "                   [--trace-out FILE] [--work-dir DIR]\n");
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out") {
      args.out = value();
    } else if (arg == "--trace-out") {
      args.trace_out = value();
    } else if (arg == "--work-dir") {
      args.work_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  return !args.workload.empty() && !args.out.empty() && args.seconds > 0;
}

int run_main(int argc, char** argv) {
  Run run;
  try {
    if (!parse(argc, argv, run.args)) return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return usage();
  }
  Args& args = run.args;
  if (args.smoke) args.seconds = std::min(args.seconds, 2.0);
  if (args.work_dir.empty()) args.work_dir = args.out + ".work";
  if (args.trace_out.empty()) args.trace_out = args.out + ".trace.json";
  run.env.workload = args.workload;
  run.env.seed = args.seed;
  run.env.traced = args.trace;
  run.env.smoke = args.smoke;
  if (args.trace) {
    for (const char* name : kLayerNames) run.env.layers[name] = 0.0;
  }

  const std::map<std::string, void (*)(Run&)> workloads = {
      {"mult-write", run_mult_write},
      {"tricount-masked", run_tricount_masked},
      {"ingest-query", run_ingest_query},
      {"mult-remote", run_mult_remote},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return usage();

  fs::remove_all(args.work_dir);
  fs::create_directories(args.work_dir);
  struct RemoveDir {
    fs::path dir;
    ~RemoveDir() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } remove_work_dir{args.work_dir};

  it->second(run);
  run.env.metrics["peak_rss_mb"] = peak_rss_mb();
  for (const auto& [name, v] : run.env.layers) {
    if (std::find_if(kLayerNames.begin(), kLayerNames.end(), [&](const char* k) {
          return name == k;
        }) == kLayerNames.end()) {
      throw std::logic_error("unlisted per-layer metric " + name);
    }
  }
  std::ofstream(args.out) << run.env.to_json();
  if (args.trace) std::ofstream(args.trace_out) << run.spans.chrome_json();
  std::fprintf(stderr, "bench_suite: %s seed %llu: %s, %llu ops, %llu failed\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               run.env.correct ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(run.env.attempted),
               static_cast<unsigned long long>(run.env.failed));
  if (!run.env.correct) return 1;
  if (args.smoke && run.env.failed > 0) return 1;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
