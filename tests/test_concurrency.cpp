// Concurrency: writers, scanners, and compactions racing on the same
// tables. With a 1-core host these mostly exercise lock correctness and
// snapshot isolation of the scan path (scans must never see torn state,
// and nothing may deadlock).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "assoc/table_io.hpp"
#include "core/tablemult.hpp"
#include "gen/rmat.hpp"
#include "nosql/nosql.hpp"
#include "util/strings.hpp"

namespace graphulo::nosql {
namespace {

TEST(Concurrency, ParallelWritersDisjointRows) {
  Instance db(2);
  TableConfig cfg;
  cfg.flush_entries = 64;  // force compactions mid-flight
  db.create_table("t", std::move(cfg));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&db, w] {
      for (int i = 0; i < kPerThread; ++i) {
        // Built up in steps: the one-expression concatenation trips
        // GCC 12's false-positive -Wrestrict (PR105329).
        std::string row = "w";
        row += std::to_string(w);
        row += '|';
        row += util::zero_pad(static_cast<std::uint64_t>(i), 4);
        Mutation m(std::move(row));
        m.put("f", "q", "v");
        db.apply("t", m);
      }
    });
  }
  for (auto& t : writers) t.join();
  Scanner scan(db, "t");
  EXPECT_EQ(scan.read_all().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Concurrency, WritersAndScannersInterleave) {
  Instance db(2);
  TableConfig cfg;
  cfg.flush_entries = 32;
  db.create_table("t", std::move(cfg));
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> scan_errors{0};

  std::thread writer([&] {
    for (int i = 0; i < 2000 && !stop.load(); ++i) {
      Mutation m(util::zero_pad(static_cast<std::uint64_t>(i % 100), 3));
      m.put("f", util::zero_pad(static_cast<std::uint64_t>(i), 5), "v");
      db.apply("t", m);
    }
    stop.store(true);
  });
  std::thread scanner([&] {
    std::size_t last = 0;
    while (!stop.load()) {
      Scanner scan(db, "t");
      std::size_t count = 0;
      std::string prev;
      bool ordered = true;
      scan.for_each([&](const Key& k, const Value&) {
        const std::string current = k.row + '\x01' + k.qualifier;
        if (!prev.empty() && current < prev) ordered = false;
        prev = current;
        ++count;
      });
      // Each snapshot must be internally ordered, and counts must be
      // monotone non-decreasing across scans: the writer only adds
      // cells, and scan i+1 snapshots every tablet after scan i did.
      if (!ordered || count < last) scan_errors.fetch_add(1);
      last = std::max(last, count);
    }
  });
  writer.join();
  stop.store(true);
  scanner.join();
  EXPECT_EQ(scan_errors.load(), 0u);
  Scanner final_scan(db, "t");
  EXPECT_EQ(final_scan.read_all().size(), 2000u);
}

TEST(Concurrency, CompactionsRaceWithScans) {
  Instance db;
  TableConfig cfg;
  cfg.flush_entries = 16;
  cfg.compaction.level0_trigger = 2;
  db.create_table("t", std::move(cfg));
  for (int i = 0; i < 300; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", std::to_string(i));
    db.apply("t", m);
  }
  std::atomic<bool> stop{false};
  std::thread compactor([&] {
    while (!stop.load()) {
      db.flush("t");
      db.compact("t");
    }
  });
  for (int round = 0; round < 50; ++round) {
    Scanner scan(db, "t");
    EXPECT_EQ(scan.read_all().size(), 300u) << "round " << round;
  }
  stop.store(true);
  compactor.join();
}

TEST(Concurrency, TableMultEightWorkersRacingCompactions) {
  // The parallel TableMult pipeline under fire: 8 workers scanning two
  // tables and writing partial products through concurrent BatchWriters,
  // while another thread keeps flushing and major-compacting the result
  // table (folding partials through the majc-scope combiner mid-write).
  // The folded table must equal the serial 1-worker product exactly.
  gen::RmatParams p;
  p.scale = 7;
  p.edge_factor = 6;
  const auto a = gen::rmat_simple_adjacency(p);
  Instance db(4);
  assoc::write_matrix(db, "A", a);
  db.add_splits("A", {assoc::vertex_key(a.rows() / 4),
                      assoc::vertex_key(a.rows() / 2),
                      assoc::vertex_key(3 * a.rows() / 4)});

  core::create_sum_table(db, "C");
  std::atomic<bool> stop{false};
  std::thread compactor([&] {
    while (!stop.load()) {
      db.flush("C");
      db.compact("C");
    }
  });
  const auto stats =
      core::table_mult(db, "A", "A", "C", {.num_workers = 8});
  stop.store(true);
  compactor.join();
  db.compact("C");

  const auto serial = core::table_mult(
      db, "A", "A", "Cserial", {.compact_result = true, .num_workers = 1});
  EXPECT_EQ(stats.rows_joined, serial.rows_joined);
  EXPECT_EQ(stats.partial_products, serial.partial_products);
  EXPECT_EQ(assoc::read_matrix(db, "C", a.cols(), a.cols()),
            assoc::read_matrix(db, "Cserial", a.cols(), a.cols()));
}

TEST(Concurrency, BatchScannerParallelDelivery) {
  util::ThreadPool pool(4);
  Instance db(4);
  db.create_table("t");
  db.add_splits("t", {"250", "500", "750"});
  for (int i = 0; i < 1000; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 3));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  BatchScanner scan(db, "t", &pool);
  std::atomic<std::size_t> seen{0};
  scan.for_each([&seen](const Key&, const Value&) {
    seen.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(seen.load(), 1000u);
}

}  // namespace
}  // namespace graphulo::nosql
