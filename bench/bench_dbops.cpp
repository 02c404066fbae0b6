// NoSQL substrate throughput: the shape behind the paper's Accumulo
// citation [7] ("100,000,000 database inserts per second" on a large
// cluster) is that ingest scales with tablet servers and pre-splitting.
// In-process we cannot reproduce cluster numbers, but the scaling SHAPE
// is measurable: ingest/scan rate vs tablet-server count, the effect of
// pre-splitting, and the LSM knobs (flush threshold, compaction fan-in).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tablemult.hpp"
#include "gen/rmat.hpp"
#include "gen/tweets.hpp"
#include "nosql/nosql.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

#include "bench_metrics.hpp"

using namespace graphulo;

namespace {

/// Ingests `cells` random-ish cells and returns (ingest rate, scan rate).
std::pair<double, double> run_workload(int servers, int splits,
                                       std::size_t cells,
                                       nosql::TableConfig cfg) {
  nosql::Instance db(servers);
  db.create_table("t", std::move(cfg));
  if (splits > 1) {
    std::vector<std::string> split_rows;
    for (int s = 1; s < splits; ++s) {
      split_rows.push_back(
          util::zero_pad(static_cast<std::uint64_t>(s * 1000 / splits), 4));
    }
    db.add_splits("t", split_rows);
  }
  util::Timer t;
  {
    nosql::BatchWriter writer(db, "t");
    for (std::size_t i = 0; i < cells; ++i) {
      // Row keys spread over the split space; qualifier distinguishes.
      nosql::Mutation m(util::zero_pad(i % 1000, 4));
      m.put("f", util::zero_pad(i / 1000, 6), nosql::encode_double(1.0));
      writer.add_mutation(std::move(m));
    }
    writer.flush();
  }
  const double ingest_rate = static_cast<double>(cells) / t.seconds();

  t.reset();
  nosql::BatchScanner scanner(db, "t");
  std::atomic<std::size_t> seen{0};
  scanner.for_each([&seen](const nosql::Key&, const nosql::Value&) {
    seen.fetch_add(1, std::memory_order_relaxed);
  });
  const double scan_rate = static_cast<double>(seen.load()) / t.seconds();
  return {ingest_rate, scan_rate};
}

const char* mode_name(nosql::WalSyncMode m) {
  switch (m) {
    case nosql::WalSyncMode::kPerAppend: return "per_append";
    case nosql::WalSyncMode::kGroup: return "group";
    case nosql::WalSyncMode::kInterval: return "interval";
  }
  return "?";
}

/// One point of the asynchronous-write-path sweep: `writers` threads
/// apply mutations through a WAL in the given sync mode with background
/// compactions on, then the table is flushed and scanned twice to
/// exercise the block cache.
struct IngestPoint {
  double cells_per_s = 0.0;
  double p50_us = 0.0;  ///< per-apply latency, microseconds
  double p99_us = 0.0;
  double scan_rate = 0.0;  ///< second (cache-warm) scan
  double hit_rate = 0.0;   ///< cache hits / (hits + misses)
  nosql::TabletStats agg;  ///< summed tablet stats (cache counters once)
};

IngestPoint run_ingest_point(int writers, nosql::WalSyncMode mode,
                             bool cache_on, std::size_t total_cells,
                             std::size_t cache_bytes) {
  nosql::Instance db(2);
  const std::string wal_path = "/tmp/graphulo_bench_ingest.wal";
  std::remove(wal_path.c_str());
  nosql::TableConfig cfg;
  cfg.flush_entries = std::max<std::size_t>(1000, total_cells / 8);
  cfg.rfile.cache_bytes = cache_on ? cache_bytes : 0;
  nosql::WalOptions wal_opts;
  wal_opts.sync_mode = mode;
  db.attach_wal(std::make_shared<nosql::WriteAheadLog>(wal_path, wal_opts));
  auto sched = std::make_shared<nosql::CompactionScheduler>(2);
  db.attach_compaction_scheduler(sched);
  db.create_table("t", cfg);

  const std::size_t per_writer = total_cells / static_cast<std::size_t>(writers);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(writers));
  std::vector<std::thread> threads;
  util::Timer t;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto& lat = latencies[static_cast<std::size_t>(w)];
      lat.reserve(per_writer);
      for (std::size_t i = 0; i < per_writer; ++i) {
        const std::size_t n = static_cast<std::size_t>(w) * per_writer + i;
        nosql::Mutation m(util::zero_pad(n % 1000, 4));
        m.put("f", util::zero_pad(n / 1000, 6), nosql::encode_double(1.0));
        util::Timer one;
        db.apply("t", m);
        lat.push_back(one.seconds() * 1e6);
      }
    });
  }
  for (auto& th : threads) th.join();
  db.sync_wal();
  const double elapsed = t.seconds();

  IngestPoint p;
  p.cells_per_s =
      static_cast<double>(per_writer * static_cast<std::size_t>(writers)) /
      elapsed;
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  const auto summary = util::summarize(all);
  p.p50_us = summary.p50;
  p.p99_us = summary.p99;

  // Push everything into files, then scan twice: the second pass
  // re-reads blocks the first inserted, so hits accumulate when
  // caching is on.
  db.flush("t");
  db.quiesce_compactions();
  for (int rep = 0; rep < 2; ++rep) {
    nosql::Scanner scanner(db, "t");
    std::size_t seen = 0;
    util::Timer st;
    scanner.for_each(
        [&seen](const nosql::Key&, const nosql::Value&) { ++seen; });
    p.scan_rate = static_cast<double>(seen) / st.seconds();
  }
  for (auto& [tablet, sid] : db.tablets_for_range("t", nosql::Range::all())) {
    const auto s = tablet->stats();
    p.agg.minor_compactions += s.minor_compactions;
    p.agg.major_compactions += s.major_compactions;
    p.agg.compactions_queued += s.compactions_queued;
    p.agg.compactions_completed += s.compactions_completed;
    p.agg.file_count += s.file_count;
    // The cache is table-wide: every tablet reports the same counters,
    // so assign rather than sum.
    p.agg.cache_hits = s.cache_hits;
    p.agg.cache_misses = s.cache_misses;
    p.agg.cache_evictions = s.cache_evictions;
  }
  const double touches =
      static_cast<double>(p.agg.cache_hits + p.agg.cache_misses);
  p.hit_rate =
      touches > 0 ? static_cast<double>(p.agg.cache_hits) / touches : 0.0;
  std::remove(wal_path.c_str());
  return p;
}

/// The asynchronous-write-path sweep: writers x WAL sync mode x cache.
/// Writes BENCH_ingest.json. `total_cells` is per configuration.
void run_ingest_sweep(std::size_t total_cells, std::size_t cache_bytes) {
  util::TablePrinter table({"writers", "sync", "cache", "ingest", "p50_us",
                            "p99_us", "bg_compactions", "hit_rate"});
  std::string json = "{\"bench\": \"ingest_sweep\", \"cells\": " +
                     std::to_string(total_cells) + ", \"results\": [";
  bool first = true;
  double per_append_8w = 0.0, group_8w = 0.0;
  for (int writers : {1, 8}) {
    for (auto mode : {nosql::WalSyncMode::kPerAppend,
                      nosql::WalSyncMode::kGroup,
                      nosql::WalSyncMode::kInterval}) {
      for (bool cache_on : {false, true}) {
        const auto p = run_ingest_point(writers, mode, cache_on, total_cells,
                                        cache_bytes);
        if (writers == 8 && !cache_on) {
          if (mode == nosql::WalSyncMode::kPerAppend) per_append_8w = p.cells_per_s;
          if (mode == nosql::WalSyncMode::kGroup) group_8w = p.cells_per_s;
        }
        table.add_row(
            {std::to_string(writers), mode_name(mode), cache_on ? "on" : "off",
             util::human_rate(p.cells_per_s),
             util::TablePrinter::fmt(p.p50_us, 1),
             util::TablePrinter::fmt(p.p99_us, 1),
             std::to_string(p.agg.compactions_completed) + "/" +
                 std::to_string(p.agg.compactions_queued),
             cache_on ? util::TablePrinter::fmt(p.hit_rate, 3) : "-"});
        if (!first) json += ", ";
        first = false;
        json += "{\"writers\": " + std::to_string(writers) +
                ", \"sync_mode\": \"" + mode_name(mode) +
                "\", \"cache\": " + (cache_on ? "true" : "false") +
                ", \"cells_per_s\": " + std::to_string(p.cells_per_s) +
                ", \"apply_p50_us\": " + util::TablePrinter::fmt(p.p50_us, 2) +
                ", \"apply_p99_us\": " + util::TablePrinter::fmt(p.p99_us, 2) +
                ", \"scan_cells_per_s\": " + std::to_string(p.scan_rate) +
                ", \"cache_hit_rate\": " + util::TablePrinter::fmt(p.hit_rate, 4) +
                ", \"cache_evictions\": " + std::to_string(p.agg.cache_evictions) +
                ", \"bg_compactions_completed\": " +
                std::to_string(p.agg.compactions_completed) + "}";
      }
    }
  }
  const double speedup = per_append_8w > 0 ? group_8w / per_append_8w : 0.0;
  json += "], \"group_vs_per_append_8w\": " +
          util::TablePrinter::fmt(speedup, 2) + "}\n";
  table.print("Async write path: WAL sync mode x writers x block cache (" +
              std::to_string(total_cells) + " cells each)");
  std::printf("group vs per_append at 8 writers: %.2fx\n", speedup);
  std::ofstream("BENCH_ingest.json") << json;
  std::printf("wrote BENCH_ingest.json\n\n");
}

// ---- scan sweeps (BENCH_scan.json) --------------------------------------

/// Block scan sweep: full-table scan throughput vs next_block() batch
/// size. Size 1 fills one cell per call (every cell pays the full
/// virtual-dispatch chain through the stack); larger blocks amortize it
/// via the run-length merge and bulk RFile copies. Returns the JSON
/// object for the "block_sweep" key.
std::string run_scan_block_sweep(std::size_t cells) {
  nosql::Instance db(1);
  nosql::TableConfig cfg;
  cfg.flush_entries = std::max<std::size_t>(2000, cells / 7);  // real fan-in
  db.create_table("t", cfg);
  {
    nosql::BatchWriter writer(db, "t");
    for (std::size_t i = 0; i < cells; ++i) {
      nosql::Mutation m(util::zero_pad(i % 4096, 4));
      m.put("f", util::zero_pad(i / 4096, 6), nosql::encode_double(1.0));
      writer.add_mutation(std::move(m));
    }
    writer.flush();
  }
  db.flush("t");

  util::TablePrinter table({"block", "scan", "speedup"});
  double base_rate = 0.0;
  std::string json = "{\"cells\": " + std::to_string(cells) + ", \"results\": [";
  bool first = true;
  for (const std::size_t block : {1, 64, 1024, 4096}) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {  // best-of-3 per point
      nosql::Scanner scanner(db, "t");
      scanner.set_batch_size(block);
      std::size_t seen = 0;
      util::Timer t;
      scanner.for_each(
          [&seen](const nosql::Key&, const nosql::Value&) { ++seen; });
      const double rate = static_cast<double>(seen) / t.seconds();
      if (rate > best) best = rate;
    }
    if (block == 1) base_rate = best;
    const double speedup = base_rate > 0 ? best / base_rate : 1.0;
    table.add_row({std::to_string(block), util::human_rate(best),
                   util::TablePrinter::fmt(speedup, 2) + "x"});
    if (!first) json += ", ";
    first = false;
    json += "{\"block\": " + std::to_string(block) +
            ", \"cells_per_s\": " + std::to_string(best) +
            ", \"speedup_vs_block1\": " + util::TablePrinter::fmt(speedup, 3) +
            "}";
  }
  json += "]}";
  table.print("Scan throughput vs block size (block 1 = one cell per fill)");
  return json;
}

/// One table of the RFL3 encoding sweep.
struct EncodingPoint {
  std::size_t file_entries = 0;
  std::size_t file_block_bytes = 0;  ///< encoded cache cost of all blocks
  std::size_t scanned = 0;
  double cold_rate = 0.0;  ///< first scan: every block decodes
  double warm_rate = 0.0;  ///< second scan: cache-resident blocks
  double hit_rate = 0.0;
  double density = 0.0;  ///< cells held per cached byte
};

/// Ingests `entries` (row, qualifier) cells into one flushed table with
/// the given block compressor and scans it twice through the block cache.
EncodingPoint run_encoding_point(
    const std::vector<std::pair<std::string, std::string>>& entries,
    nosql::RFileCompressor comp) {
  nosql::Instance db(1);
  nosql::TableConfig cfg;
  cfg.flush_entries = entries.size() + 1;  // one RFile: clean density
  cfg.rfile.cache_bytes = 256 * 1024 * 1024;  // hold everything resident
  cfg.rfile.index_stride = 128;
  cfg.rfile.compressor = comp;
  db.create_table("t", cfg);
  {
    nosql::BatchWriter writer(db, "t");
    for (const auto& [row, qual] : entries) {
      nosql::Mutation m(row);
      m.put("f", qual, nosql::encode_double(1.0));
      writer.add_mutation(std::move(m));
    }
    writer.flush();
  }
  db.flush("t");

  auto scan_once = [&db] {
    nosql::Scanner scanner(db, "t");
    scanner.set_batch_size(1024);
    std::size_t seen = 0;
    util::Timer t;
    scanner.for_each(
        [&seen](const nosql::Key&, const nosql::Value&) { ++seen; });
    return std::make_pair(seen, t.seconds());
  };
  EncodingPoint p;
  const auto [cold_seen, cold_s] = scan_once();
  const auto [warm_seen, warm_s] = scan_once();
  p.scanned = cold_seen;
  p.cold_rate = static_cast<double>(cold_seen) / cold_s;
  p.warm_rate = static_cast<double>(warm_seen) / warm_s;
  std::uint64_t hits = 0, misses = 0;
  for (auto& [tablet, sid] : db.tablets_for_range("t", nosql::Range::all())) {
    const auto s = tablet->stats();
    p.file_entries += s.file_entries;
    p.file_block_bytes += s.file_block_bytes;
    // Table-wide cache: every tablet reports the same counters.
    hits = s.cache_hits;
    misses = s.cache_misses;
  }
  p.hit_rate = hits + misses > 0
                   ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                   : 0.0;
  p.density = p.file_block_bytes > 0
                  ? static_cast<double>(p.file_entries) /
                        static_cast<double>(p.file_block_bytes)
                  : 0.0;
  return p;
}

/// RFL3 encoding sweep over two corpus shapes (R-MAT adjacency and the
/// tweet term table) x {prefix, prefix+lz}. The headline number is
/// cells-per-cached-byte: how many more cells the same block cache
/// budget holds once prefix-encoded blocks are also LZ-compressed.
/// Returns the JSON object for the "encoding_sweep" key.
std::string run_encoding_sweep(bool smoke) {
  // R-MAT adjacency: row = source vertex, qualifier = destination.
  gen::RmatParams rp;
  rp.scale = smoke ? 8 : 13;
  std::vector<std::pair<std::string, std::string>> rmat_entries;
  for (const auto& [u, v] : gen::rmat_edges(rp)) {
    rmat_entries.emplace_back(
        "v" + util::zero_pad(static_cast<std::uint64_t>(u), 7),
        "v" + util::zero_pad(static_cast<std::uint64_t>(v), 7));
  }
  std::sort(rmat_entries.begin(), rmat_entries.end());
  // Tweet term table: row = tweet id, qualifier = word.
  gen::TweetParams tp;
  tp.num_tweets = smoke ? 300 : 4000;
  std::vector<std::pair<std::string, std::string>> tweet_entries;
  for (const auto& tweet : gen::generate_tweets(tp).tweets) {
    for (const auto& word : tweet.words) {
      tweet_entries.emplace_back(tweet.id, word);
    }
  }

  struct EncodingMode {
    const char* name;
    nosql::RFileCompressor comp;
  };
  const EncodingMode modes[] = {
      {"prefix", nosql::RFileCompressor::kNone},
      {"prefix_lz", nosql::RFileCompressor::kLz},
  };
  const std::pair<const char*,
                  const std::vector<std::pair<std::string, std::string>>*>
      tables[] = {{"rmat", &rmat_entries}, {"tweets", &tweet_entries}};

  util::TablePrinter table({"table", "encoding", "cells", "block_bytes",
                            "cells_per_byte", "density_x", "cold_scan",
                            "warm_scan", "hit_rate"});
  std::string json = "{\"results\": [";
  bool first = true;
  double rmat_lz_gain = 0.0, tweets_lz_gain = 0.0;
  for (const auto& [tname, entries] : tables) {
    double prefix_density = 0.0;
    for (const auto& mode : modes) {
      const auto p = run_encoding_point(*entries, mode.comp);
      if (mode.comp == nosql::RFileCompressor::kNone) prefix_density = p.density;
      const double gain = prefix_density > 0 ? p.density / prefix_density : 0.0;
      if (mode.comp == nosql::RFileCompressor::kLz) {
        (std::string(tname) == "rmat" ? rmat_lz_gain : tweets_lz_gain) = gain;
      }
      table.add_row({tname, mode.name, std::to_string(p.file_entries),
                     util::human_bytes(static_cast<double>(p.file_block_bytes)),
                     util::TablePrinter::fmt(p.density, 4),
                     util::TablePrinter::fmt(gain, 2) + "x",
                     util::human_rate(p.cold_rate),
                     util::human_rate(p.warm_rate),
                     util::TablePrinter::fmt(p.hit_rate, 3)});
      if (!first) json += ", ";
      first = false;
      json += std::string("{\"table\": \"") + tname + "\", \"encoding\": \"" +
              mode.name +
              "\", \"cells\": " + std::to_string(p.file_entries) +
              ", \"file_block_bytes\": " + std::to_string(p.file_block_bytes) +
              ", \"cells_per_cached_byte\": " +
              util::TablePrinter::fmt(p.density, 6) +
              ", \"density_vs_prefix\": " + util::TablePrinter::fmt(gain, 3) +
              ", \"cold_cells_per_s\": " + std::to_string(p.cold_rate) +
              ", \"warm_cells_per_s\": " + std::to_string(p.warm_rate) +
              ", \"cache_hit_rate\": " + util::TablePrinter::fmt(p.hit_rate, 4) +
              "}";
    }
  }
  json += "], \"rmat_density_lz_vs_prefix\": " +
          util::TablePrinter::fmt(rmat_lz_gain, 3) +
          ", \"tweets_density_lz_vs_prefix\": " +
          util::TablePrinter::fmt(tweets_lz_gain, 3) + "}";
  table.print(
      "RFL3 encoding: cells per cached byte and scan rates "
      "(density_x = vs prefix alone)");
  return json;
}

/// Memtable sweep: median latency of a 1-row scan (8 cells) over a
/// one-tablet table whose cells all sit unflushed in the active
/// memtable, one table per size. A scan pins the memtable in O(1) and
/// seeks it in O(log n), so the latency should stay nearly flat as the
/// memtable grows; a scan that copied the memtable would grow linearly.
/// Scans visit the sizes round-robin, so machine drift during the sweep
/// lands on every size alike. Returns the JSON array for the
/// "memtable_sweep" key.
std::string run_memtable_sweep(bool smoke) {
  constexpr std::size_t kCellsPerRow = 8;
  constexpr std::size_t kScans = 1000;  // per size
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{1000, 10000, 100000};
  nosql::Instance db(1);
  for (const std::size_t entries : sizes) {
    nosql::TableConfig cfg;
    cfg.flush_entries = 2 * entries;  // nothing flushes
    const std::string table = "m" + std::to_string(entries);
    db.create_table(table, cfg);
    const std::size_t rows = entries / kCellsPerRow;
    nosql::BatchWriter writer(db, table);
    for (std::size_t i = 0; i < entries; ++i) {
      nosql::Mutation m(util::zero_pad(i % rows, 6));
      m.put("f", util::zero_pad(i / rows, 2), nosql::encode_double(1.0));
      writer.add_mutation(std::move(m));
    }
    writer.flush();
  }
  std::vector<std::vector<double>> us(sizes.size());
  for (std::size_t s = 0; s < kScans; ++s) {
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const std::size_t rows = sizes[k] / kCellsPerRow;
      nosql::Scanner scanner(db, "m" + std::to_string(sizes[k]));
      scanner.set_range(
          nosql::Range::exact_row(util::zero_pad((s * 7919) % rows, 6)));
      std::size_t seen = 0;
      util::Timer t;
      scanner.for_each(
          [&seen](const nosql::Key&, const nosql::Value&) { ++seen; });
      us[k].push_back(t.seconds() * 1e6);
      if (seen != kCellsPerRow) {
        std::fprintf(stderr, "memtable sweep: a row returned %zu cells\n",
                     seen);
        std::exit(1);
      }
    }
  }
  util::TablePrinter table({"memtable entries", "1-row scan p50", "vs 1K"});
  std::string json = "[";
  const double base_us = util::percentile(us[0], 0.5);
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const double p50 = util::percentile(us[k], 0.5);
    const double ratio = p50 / base_us;
    table.add_row({std::to_string(sizes[k]),
                   util::TablePrinter::fmt(p50, 1) + " us",
                   util::TablePrinter::fmt(ratio, 2) + "x"});
    if (k > 0) json += ", ";
    json += "{\"memtable_entries\": " + std::to_string(sizes[k]) +
            ", \"scan_p50_us\": " + util::TablePrinter::fmt(p50, 2) +
            ", \"ratio_vs_1k\": " + util::TablePrinter::fmt(ratio, 3) + "}";
  }
  json += "]";
  table.print("1-row scan latency vs unflushed memtable entries (" +
              std::to_string(kScans) + " scans per size)");
  return json;
}

/// Writes the combined BENCH_scan.json (block-size, encoding and
/// memtable sweeps, one file so CI uploads a single scan artifact).
void write_scan_json(const std::string& block_sweep,
                     const std::string& encoding_sweep,
                     const std::string& memtable_sweep) {
  std::ofstream("BENCH_scan.json")
      << "{\"bench\": \"scan\", \"block_sweep\": " << block_sweep
      << ", \"encoding_sweep\": " << encoding_sweep
      << ", \"memtable_sweep\": " << memtable_sweep << "}\n";
  std::printf("wrote BENCH_scan.json\n\n");
}

/// Smoke-only: a small TableMult fed through BatchWriters, so one
/// --smoke run touches every instrumented subsystem (WAL commit,
/// flush/compaction, block cache, scan, BatchWriter, TableMult) and the
/// metrics dump carries a non-zero series from each.
void run_smoke_tablemult() {
  nosql::Instance db(2);
  const std::string wal_path = "/tmp/graphulo_bench_smoke_mult.wal";
  std::remove(wal_path.c_str());
  nosql::TableConfig cfg;
  cfg.flush_entries = 64;
  cfg.rfile.cache_bytes = 16 * 1024;
  db.attach_wal(std::make_shared<nosql::WriteAheadLog>(wal_path));
  db.create_table("A", cfg);
  db.create_table("B", cfg);
  {
    nosql::BatchWriter wa(db, "A");
    nosql::BatchWriter wb(db, "B");
    for (int k = 0; k < 24; ++k) {
      nosql::Mutation ma(util::zero_pad(static_cast<std::uint64_t>(k), 4));
      nosql::Mutation mb(util::zero_pad(static_cast<std::uint64_t>(k), 4));
      for (int j = 0; j < 6; ++j) {
        ma.put("f", "a" + std::to_string((k + j) % 8),
               nosql::encode_double(1.0 + j));
        mb.put("f", "b" + std::to_string((k * 3 + j) % 8),
               nosql::encode_double(2.0));
      }
      wa.add_mutation(std::move(ma));
      wb.add_mutation(std::move(mb));
    }
    wa.close();
    wb.close();
  }
  db.flush("A");
  db.flush("B");
  core::TableMultOptions options;
  options.num_workers = 2;
  const auto stats = core::table_mult(db, "A", "B", "C", options);
  std::printf("smoke TableMult: %zu rows joined, %zu partial products\n",
              stats.rows_joined, stats.partial_products);
  // Masked fused-reduce leg: rerun the same multiply gated by C's own
  // cells restricted to one output column, so both the kept and the
  // pruned paths fire and the tablemult.partial_products_pruned.total
  // metric is non-zero in the smoke snapshot.
  core::TableMultOptions masked = options;
  masked.mask_table = "C";
  masked.mask_filter = [](const std::string&, const std::string& qualifier) {
    return qualifier == "b3";
  };
  const auto reduced = core::table_mult_reduce(db, "A", "B", masked);
  std::printf(
      "smoke masked TableMult reduce: total %.1f, %zu kept, %zu pruned\n",
      reduced.total, reduced.stats.partial_products,
      reduced.stats.partial_products_pruned);
  std::remove(wal_path.c_str());
}

// ---- leveled compaction sweep (BENCH_compaction.json) -------------------

/// One sustained-ingest run: overwrite-heavy cells (about four versions
/// per column) pushed through threshold flushes and compactions, which
/// the writer runs itself (no scheduler attached), then the
/// amplification shape plus a cache-warm full scan.
struct CompactionPoint {
  double ingest_rate = 0.0;
  double warm_scan_rate = 0.0;
  double write_amp = 0.0;  ///< cells written into files / cells ingested
  double space_amp = 0.0;  ///< file-resident cells / live columns
  std::size_t file_count = 0;
  std::size_t l0_files = 0;
  std::size_t sorted_levels = 0;      ///< non-empty levels above L0
  std::size_t worst_point_files = 0;  ///< files a point read can consult
  std::size_t flushes = 0;
  std::size_t compactions = 0;
};

CompactionPoint run_compaction_point(std::size_t cells,
                                     std::size_t level_base_bytes) {
  auto& reg = obs::MetricsRegistry::global();
  const auto written_cells = [&reg] {
    return reg.counter("tablet.flush.cells.total").value() +
           reg.counter("tablet.compaction.cells.total").value();
  };
  const std::uint64_t written0 = written_cells();

  nosql::Instance db(1);
  nosql::TableConfig cfg;
  cfg.flush_entries = std::max<std::size_t>(64, cells / 80);  // ~80 flushes
  cfg.compaction.level0_trigger = 4;
  cfg.compaction.level_base_bytes = level_base_bytes;
  cfg.compaction.level_multiplier = 8;
  cfg.rfile.cache_bytes = 64 * 1024 * 1024;  // warm scan stays resident
  db.create_table("t", cfg);

  // Each column is rewritten ~4 times so compactions have versions to
  // discard; key order cycles so every flush covers a keyspace slice.
  const std::size_t live = std::max<std::size_t>(1, cells / 4);
  util::Timer t;
  {
    nosql::BatchWriter writer(db, "t");
    for (std::size_t i = 0; i < cells; ++i) {
      const std::size_t k = i % live;
      nosql::Mutation m(util::zero_pad(k % 1000, 4));
      m.put("f", util::zero_pad(k / 1000, 6),
            nosql::encode_double(static_cast<double>(i)));
      writer.add_mutation(std::move(m));
    }
    writer.flush();
  }
  CompactionPoint p;
  p.ingest_rate = static_cast<double>(cells) / t.seconds();
  p.write_amp =
      static_cast<double>(written_cells() - written0) / static_cast<double>(cells);

  std::size_t file_cells = 0;
  for (auto& [tablet, sid] : db.tablets_for_range("t", nosql::Range::all())) {
    const auto s = tablet->stats();
    p.file_count += s.file_count;
    file_cells += s.file_entries;
    p.flushes += s.minor_compactions;
    p.compactions += s.major_compactions;
    if (!s.level_files.empty()) p.l0_files += s.level_files[0];
    for (std::size_t l = 1; l < s.level_files.size(); ++l) {
      if (s.level_files[l] > 0) ++p.sorted_levels;
    }
  }
  // A point read consults every L0 file but at most one file per sorted
  // level.
  p.worst_point_files = p.l0_files + p.sorted_levels;
  p.space_amp = static_cast<double>(file_cells) / static_cast<double>(live);

  for (int rep = 0; rep < 2; ++rep) {  // second pass is cache-warm
    nosql::Scanner scanner(db, "t");
    scanner.set_batch_size(1024);
    std::size_t seen = 0;
    util::Timer st;
    scanner.for_each(
        [&seen](const nosql::Key&, const nosql::Value&) { ++seen; });
    p.warm_scan_rate = static_cast<double>(seen) / st.seconds();
  }
  return p;
}

/// Leveled compaction under sustained overwrite ingest: cells x L1 byte
/// budgets. Writes BENCH_compaction.json.
void run_compaction_sweep(bool smoke) {
  const std::vector<std::size_t> cell_counts =
      smoke ? std::vector<std::size_t>{6000}
            : std::vector<std::size_t>{40000, 120000};
  const std::vector<std::size_t> budgets{32 * 1024, 128 * 1024};
  util::TablePrinter table({"cells", "l1_budget", "ingest", "warm_scan",
                            "write_amp", "space_amp", "files", "l0", "levels",
                            "worst_point"});
  std::string json = "{\"bench\": \"compaction_sweep\", \"results\": [";
  bool first = true;
  for (const std::size_t cells : cell_counts) {
    for (const std::size_t budget : budgets) {
      const auto p = run_compaction_point(cells, budget);
      table.add_row({std::to_string(cells),
                     util::human_bytes(static_cast<double>(budget)),
                     util::human_rate(p.ingest_rate),
                     util::human_rate(p.warm_scan_rate),
                     util::TablePrinter::fmt(p.write_amp, 2),
                     util::TablePrinter::fmt(p.space_amp, 2),
                     std::to_string(p.file_count), std::to_string(p.l0_files),
                     std::to_string(p.sorted_levels),
                     std::to_string(p.worst_point_files)});
      if (!first) json += ", ";
      first = false;
      json += "{\"cells\": " + std::to_string(cells) +
              ", \"level_base_bytes\": " + std::to_string(budget) +
              ", \"ingest_cells_per_s\": " + std::to_string(p.ingest_rate) +
              ", \"warm_scan_cells_per_s\": " +
              std::to_string(p.warm_scan_rate) +
              ", \"write_amp\": " + util::TablePrinter::fmt(p.write_amp, 3) +
              ", \"space_amp\": " + util::TablePrinter::fmt(p.space_amp, 3) +
              ", \"file_count\": " + std::to_string(p.file_count) +
              ", \"l0_files\": " + std::to_string(p.l0_files) +
              ", \"sorted_levels\": " + std::to_string(p.sorted_levels) +
              ", \"worst_point_files\": " +
              std::to_string(p.worst_point_files) +
              ", \"flushes\": " + std::to_string(p.flushes) +
              ", \"compactions\": " + std::to_string(p.compactions) + "}";
    }
  }
  json += "]}\n";
  table.print(
      "Leveled compaction under sustained overwrite ingest "
      "(worst_point = L0 files + sorted levels)");
  std::ofstream("BENCH_compaction.json") << json;
  std::printf("wrote BENCH_compaction.json\n\n");
}

// ---- mixed read/write sweep (BENCH_mixed.json) --------------------------

/// One mixed-workload run: writer threads sustain overwrite ingest while
/// reader threads issue full snapshot scans and one TableMult leg runs
/// through pinned input snapshots — all against a single admission mode.
struct MixedPoint {
  double scan_p50_us = 0.0;  ///< completed-scan latency percentiles
  double scan_p99_us = 0.0;
  std::size_t scans_completed = 0;
  std::size_t scans_shed = 0;     ///< OverloadedError from admission
  std::size_t deadline_hits = 0;  ///< DeadlineExceeded mid-scan
  double writes_per_s = 0.0;
  double mult_seconds = 0.0;
  std::size_t mult_partials = 0;
};

MixedPoint run_mixed_point(const nosql::AdmissionConfig& admission,
                           std::size_t preload, std::size_t writes_per_writer,
                           int writers, int readers) {
  nosql::Instance db(2);
  nosql::TableConfig cfg;
  cfg.flush_entries = std::max<std::size_t>(500, preload / 8);
  cfg.admission = admission;
  db.create_table("t", cfg);
  {
    nosql::BatchWriter writer(db, "t");
    for (std::size_t i = 0; i < preload; ++i) {
      nosql::Mutation m(util::zero_pad(i % 1000, 4));
      m.put("f", util::zero_pad(i / 1000, 6), nosql::encode_double(1.0));
      writer.add_mutation(std::move(m));
    }
    writer.flush();
  }
  // Small inputs for the TableMult leg (default admission: the leg
  // measures MVCC snapshot reads under load, not its own shedding).
  for (const char* name : {"MA", "MB"}) {
    db.create_table(name, nosql::TableConfig{});
    nosql::BatchWriter w(db, name);
    for (int k = 0; k < 48; ++k) {
      nosql::Mutation m(util::zero_pad(static_cast<std::uint64_t>(k), 4));
      for (int j = 0; j < 4; ++j) {
        m.put("f", "c" + std::to_string((k + j) % 12),
              nosql::encode_double(1.0));
      }
      w.add_mutation(std::move(m));
    }
    w.close();
  }

  MixedPoint p;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> written{0}, completed{0}, shed{0}, deadline{0};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(readers));

  std::vector<std::thread> threads;
  util::Timer wall;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      nosql::BatchWriter writer(db, "t");
      for (std::size_t i = 0; i < writes_per_writer; ++i) {
        const std::size_t n =
            static_cast<std::size_t>(w) * writes_per_writer + i;
        nosql::Mutation m(util::zero_pad(n % 1000, 4));
        m.put("f", util::zero_pad(n % 200, 6), nosql::encode_double(2.0));
        writer.add_mutation(std::move(m));
      }
      writer.close();
      written.fetch_add(writes_per_writer);
    });
  }
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto& lat = latencies[static_cast<std::size_t>(r)];
      while (!stop.load()) {
        util::Timer t;
        try {
          nosql::Scanner scan(db, "t");
          scan.set_snapshot(db.open_snapshot("t"));
          scan.set_timeout(std::chrono::milliseconds(500));
          std::size_t seen = 0;
          scan.for_each(
              [&seen](const nosql::Key&, const nosql::Value&) { ++seen; });
          lat.push_back(t.seconds() * 1e6);
          completed.fetch_add(1);
        } catch (const nosql::OverloadedError&) {
          shed.fetch_add(1);
        } catch (const nosql::DeadlineExceeded&) {
          deadline.fetch_add(1);
        }
      }
    });
  }
  {  // TableMult leg: snapshot-isolated multiply amid the storm
    util::Timer mt;
    core::TableMultOptions options;
    options.num_workers = 2;
    const auto stats = core::table_mult(db, "MA", "MB", "MC", options);
    p.mult_seconds = mt.seconds();
    p.mult_partials = stats.partial_products;
  }
  for (int w = 0; w < writers; ++w) threads[static_cast<std::size_t>(w)].join();
  const double write_elapsed = wall.seconds();
  stop.store(true);
  for (std::size_t i = static_cast<std::size_t>(writers); i < threads.size();
       ++i) {
    threads[i].join();
  }

  p.writes_per_s = static_cast<double>(written.load()) / write_elapsed;
  p.scans_completed = completed.load();
  p.scans_shed = shed.load();
  p.deadline_hits = deadline.load();
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  if (!all.empty()) {
    const auto summary = util::summarize(all);
    p.scan_p50_us = summary.p50;
    p.scan_p99_us = summary.p99;
  }
  return p;
}

/// Admission sweep under mixed read/write traffic: none vs queue vs shed
/// with more reader threads than scan slots. Writes BENCH_mixed.json;
/// the headline is shed-mode p99 staying bounded (completed scans keep
/// their unloaded latency, excess load becomes typed sheds) instead of
/// every scan's tail collapsing together.
void run_mixed_sweep(bool smoke) {
  const std::size_t preload = smoke ? 4000 : 40000;
  const std::size_t writes_per_writer = smoke ? 2000 : 20000;
  const int writers = smoke ? 2 : 4;
  const int readers = 6;

  struct Mode {
    const char* name;
    nosql::AdmissionConfig admission;
  };
  std::vector<Mode> modes;
  modes.push_back({"none", {}});
  {
    nosql::AdmissionConfig a;
    a.max_inflight_scans = 2;
    a.policy = nosql::AdmissionPolicy::kQueue;
    a.max_queue_wait = std::chrono::milliseconds(200);
    modes.push_back({"queue", a});
    a.policy = nosql::AdmissionPolicy::kShed;
    modes.push_back({"shed", a});
  }

  util::TablePrinter table({"mode", "writes", "scans", "shed", "deadline",
                            "p50_us", "p99_us", "mult_s"});
  std::string json = "{\"bench\": \"mixed_sweep\", \"readers\": " +
                     std::to_string(readers) +
                     ", \"writers\": " + std::to_string(writers) +
                     ", \"results\": [";
  double none_p99 = 0.0, shed_p99 = 0.0;
  bool first = true;
  for (const Mode& m : modes) {
    const auto p = run_mixed_point(m.admission, preload, writes_per_writer,
                                   writers, readers);
    if (std::string(m.name) == "none") none_p99 = p.scan_p99_us;
    if (std::string(m.name) == "shed") shed_p99 = p.scan_p99_us;
    table.add_row({m.name, util::human_rate(p.writes_per_s),
                   std::to_string(p.scans_completed),
                   std::to_string(p.scans_shed),
                   std::to_string(p.deadline_hits),
                   util::TablePrinter::fmt(p.scan_p50_us, 1),
                   util::TablePrinter::fmt(p.scan_p99_us, 1),
                   util::TablePrinter::fmt(p.mult_seconds, 3)});
    if (!first) json += ", ";
    first = false;
    json += std::string("{\"mode\": \"") + m.name +
            "\", \"writes_per_s\": " + std::to_string(p.writes_per_s) +
            ", \"scans_completed\": " + std::to_string(p.scans_completed) +
            ", \"scans_shed\": " + std::to_string(p.scans_shed) +
            ", \"deadline_hits\": " + std::to_string(p.deadline_hits) +
            ", \"scan_p50_us\": " + util::TablePrinter::fmt(p.scan_p50_us, 2) +
            ", \"scan_p99_us\": " + util::TablePrinter::fmt(p.scan_p99_us, 2) +
            ", \"tablemult_seconds\": " +
            util::TablePrinter::fmt(p.mult_seconds, 4) +
            ", \"tablemult_partial_products\": " +
            std::to_string(p.mult_partials) + "}";
  }
  const double ratio = none_p99 > 0 ? shed_p99 / none_p99 : 0.0;
  json += "], \"shed_p99_vs_none\": " + util::TablePrinter::fmt(ratio, 3) +
          "}\n";
  table.print(
      "Mixed read/write traffic: admission mode x 6 snapshot readers "
      "(2 scan slots in queue/shed modes)");
  std::printf("shed-mode scan p99 vs unlimited: %.3fx\n", ratio);
  std::ofstream("BENCH_mixed.json") << json;
  std::printf("wrote BENCH_mixed.json\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  // --legs ingest,scan,compaction,mixed,tablemult restricts the run to
  // the named legs. A skipped leg does NOT touch its BENCH_*.json — the
  // prior run's artifact is preserved instead of being overwritten with
  // an empty section, so CI assertions on the other files keep working.
  std::set<std::string> legs;
  bool legs_given = false;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--legs") {
      legs_given = true;
      std::istringstream in(argv[i + 1]);
      std::string leg;
      while (std::getline(in, leg, ',')) {
        if (!leg.empty()) legs.insert(leg);
      }
    }
  }
  const auto runs_leg = [&](const char* leg) {
    if (!legs_given || legs.count(leg) != 0) return true;
    std::printf("skipping %s leg (prior BENCH artifact preserved)\n\n", leg);
    return false;
  };
  // --smoke always leaves a metrics dump behind (CI reads it);
  // full runs opt in with --metrics-json <path>.
  graphulo::bench::MetricsDump metrics_dump(argc, argv,
                                            smoke ? "BENCH_metrics.json" : "");
  if (smoke) {
    // Tiny sweep for sanitizer CI: every sync mode, background
    // compactions, and a cache small enough to evict.
    if (runs_leg("ingest")) run_ingest_sweep(1600, 16 * 1024);
    // Small-scale scan artifact so sanitizer jobs exercise the packed
    // (RFL3) read path end to end and CI can assert on the JSON.
    if (runs_leg("scan")) {
      const std::string block_sweep = run_scan_block_sweep(8000);
      const std::string encoding_sweep = run_encoding_sweep(/*smoke=*/true);
      write_scan_json(block_sweep, encoding_sweep,
                      run_memtable_sweep(/*smoke=*/true));
    }
    // Small leveled sustained-ingest artifact for CI assertions.
    if (runs_leg("compaction")) run_compaction_sweep(/*smoke=*/true);
    // Admission-mode sweep under mixed read/write traffic (MVCC snapshot
    // readers vs sustained writers); CI asserts on BENCH_mixed.json.
    if (runs_leg("mixed")) run_mixed_sweep(/*smoke=*/true);
    if (runs_leg("tablemult")) run_smoke_tablemult();
    return 0;
  }

  const std::size_t kCells = 200000;

  // Cache sized to hold the working set: a sequential re-scan against a
  // smaller-than-data LRU evicts every block before its re-read (the
  // classic scan-thrash pattern, visible in --smoke's tiny cache).
  if (runs_leg("ingest")) run_ingest_sweep(16000, 8 * 1024 * 1024);

  {
    util::TablePrinter table({"servers", "splits", "ingest", "scan"});
    for (int servers : {1, 2, 4}) {
      for (int splits : {1, servers}) {
        nosql::TableConfig cfg;
        cfg.flush_entries = 50000;
        const auto [ingest, scan] = run_workload(servers, splits, kCells, cfg);
        table.add_row({std::to_string(servers), std::to_string(splits),
                       util::human_rate(ingest), util::human_rate(scan)});
      }
    }
    table.print("Ingest/scan rate vs tablet servers and pre-splits (" +
                std::to_string(kCells) + " cells)");
  }

  {
    util::TablePrinter table({"flush_entries", "ingest", "scan",
                              "minor_compactions"});
    for (std::size_t flush : {5000, 20000, 100000}) {
      nosql::TableConfig cfg;
      cfg.flush_entries = flush;
      nosql::Instance db(1);
      db.create_table("t", cfg);
      util::Timer t;
      {
        nosql::BatchWriter writer(db, "t");
        for (std::size_t i = 0; i < kCells; ++i) {
          nosql::Mutation m(util::zero_pad(i % 997, 4));
          m.put("f", util::zero_pad(i / 997, 6), nosql::encode_double(1.0));
          writer.add_mutation(std::move(m));
        }
        writer.flush();
      }
      const double ingest = static_cast<double>(kCells) / t.seconds();
      t.reset();
      nosql::Scanner scanner(db, "t");
      std::size_t seen = 0;
      scanner.for_each(
          [&seen](const nosql::Key&, const nosql::Value&) { ++seen; });
      const double scan = static_cast<double>(seen) / t.seconds();
      std::size_t mincs = 0;
      for (auto& [tablet, sid] :
           db.tablets_for_range("t", nosql::Range::all())) {
        mincs += tablet->stats().minor_compactions;
      }
      table.add_row({std::to_string(flush), util::human_rate(ingest),
                     util::human_rate(scan), std::to_string(mincs)});
    }
    table.print("LSM tuning: flush threshold");
  }

  // Scan artifact: block-size sweep, the RFL3 encoding sweep
  // (cells-per-cached-byte on R-MAT adjacency and the tweet term table)
  // and the memtable sweep (1-row scan latency vs unflushed entries).
  if (runs_leg("scan")) {
    const std::string block_sweep = run_scan_block_sweep(2 * kCells);
    const std::string encoding_sweep = run_encoding_sweep(/*smoke=*/false);
    write_scan_json(block_sweep, encoding_sweep,
                    run_memtable_sweep(/*smoke=*/false));
  }

  // Leveled amplification under sustained overwrite ingest.
  if (runs_leg("compaction")) run_compaction_sweep(/*smoke=*/false);

  // Admission-mode sweep under mixed read/write traffic.
  if (runs_leg("mixed")) run_mixed_sweep(/*smoke=*/false);

  // WAL overhead: journaled vs unjournaled ingest of the same workload.
  {
    util::TablePrinter table({"wal", "ingest", "overhead"});
    double base_rate = 0.0;
    for (const bool journaled : {false, true}) {
      nosql::Instance db(1);
      const std::string wal_path = "/tmp/graphulo_bench_dbops.wal";
      std::remove(wal_path.c_str());
      if (journaled) {
        db.attach_wal(std::make_shared<nosql::WriteAheadLog>(wal_path));
      }
      db.create_table("t");
      util::Timer t;
      {
        nosql::BatchWriter writer(db, "t");
        for (std::size_t i = 0; i < kCells; ++i) {
          nosql::Mutation m(util::zero_pad(i % 1000, 4));
          m.put("f", util::zero_pad(i / 1000, 6), nosql::encode_double(1.0));
          writer.add_mutation(std::move(m));
        }
        writer.flush();
      }
      db.sync_wal();
      const double rate = static_cast<double>(kCells) / t.seconds();
      if (!journaled) base_rate = rate;
      table.add_row({journaled ? "on" : "off", util::human_rate(rate),
                     journaled && base_rate > 0
                         ? util::TablePrinter::fmt(base_rate / rate, 2) + "x"
                         : "-"});
      std::remove(wal_path.c_str());
    }
    table.print("Write-ahead-log durability cost");
  }
  return 0;
}
