// MVCC snapshot scans + admission control: pinned cuts must stay
// byte-stable while writers/flushes/compactions race — compaction GC
// owes an open handle nothing, since the handle reads only its own
// pinned sources — and the admission layer must bound concurrent scans
// with typed overload errors and cooperative deadlines.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/table_scan.hpp"
#include "nosql/nosql.hpp"
#include "util/strings.hpp"

namespace graphulo::nosql {
namespace {

using std::chrono::milliseconds;

void put_row(Instance& db, const std::string& table, const std::string& row,
             const std::string& qual, const std::string& value) {
  Mutation m(row);
  m.put("f", qual, value);
  db.apply(table, m);
}

std::vector<Cell> snapshot_cells(Instance& db, const std::string& table,
                                 std::shared_ptr<const Snapshot> snap) {
  Scanner scan(db, table);
  scan.set_snapshot(std::move(snap));
  return scan.read_all();
}

std::string flatten(const std::vector<Cell>& cells) {
  std::string out;
  for (const auto& c : cells) {
    out += c.key.row;
    out += '\x1f';
    out += c.key.family;
    out += '\x1f';
    out += c.key.qualifier;
    out += '\x1f';
    out += std::to_string(c.key.ts);
    out += '\x1f';
    out += c.value;
    out += '\n';
  }
  return out;
}

TEST(Snapshot, PinnedCutIgnoresLaterWrites) {
  Instance db;
  TableConfig cfg;
  cfg.flush_entries = 16;  // force file turnover after the pin
  db.create_table("t", std::move(cfg));
  for (int i = 0; i < 50; ++i) {
    put_row(db, "t", util::zero_pad(static_cast<std::uint64_t>(i), 4), "q",
            "old");
  }
  auto snap = db.open_snapshot("t");
  for (int i = 0; i < 50; ++i) {
    put_row(db, "t", util::zero_pad(static_cast<std::uint64_t>(i), 4), "q",
            "new");  // overwrite every row
    put_row(db, "t", "x" + util::zero_pad(static_cast<std::uint64_t>(i), 4),
            "q", "extra");
  }
  db.flush("t");
  db.compact("t");

  const auto pinned = snapshot_cells(db, "t", snap);
  ASSERT_EQ(pinned.size(), 50u);
  for (const auto& c : pinned) EXPECT_EQ(c.value, "old");

  Scanner live(db, "t");
  const auto now = live.read_all();
  EXPECT_EQ(now.size(), 100u);  // 50 overwritten + 50 extra
}

TEST(Snapshot, SurvivesDeleteAndCompaction) {
  Instance db;
  db.create_table("t");
  put_row(db, "t", "r", "q", "v");
  auto snap = db.open_snapshot("t");

  Mutation del("r");
  del.put_delete("f", "q");
  db.apply("t", del);
  db.flush("t");
  db.compact("t");

  Scanner live(db, "t");
  EXPECT_TRUE(live.read_all().empty());
  // The open handle holds no compaction GC back: the full compaction
  // dropped the marker and the cell it shadows from the live file set.
  auto tablets = db.tablets_for_range("t", Range::all());
  ASSERT_EQ(tablets.size(), 1u);
  auto raw = tablets[0].first->raw_stack();
  raw->seek(Range::all());
  EXPECT_FALSE(raw->has_top());

  const auto pinned = snapshot_cells(db, "t", snap);
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0].key.row, "r");
  EXPECT_EQ(pinned[0].value, "v");
}

TEST(Snapshot, WholeTableCutSurvivesSplits) {
  Instance db(3);
  db.create_table("t");
  for (int i = 0; i < 60; ++i) {
    put_row(db, "t", util::zero_pad(static_cast<std::uint64_t>(i), 4), "q",
            "v" + std::to_string(i));
  }
  auto snap = db.open_snapshot("t");
  const auto before = flatten(snapshot_cells(db, "t", snap));

  db.add_splits("t", {"0020", "0040"});
  for (int i = 60; i < 90; ++i) {
    put_row(db, "t", util::zero_pad(static_cast<std::uint64_t>(i), 4), "q",
            "late");
  }
  db.flush("t");

  const auto after = flatten(snapshot_cells(db, "t", snap));
  EXPECT_EQ(before, after) << "split + writes must not perturb an open cut";
  Scanner live(db, "t");
  EXPECT_EQ(live.read_all().size(), 90u);
}

TEST(Snapshot, RepeatedReadsAreByteIdentical) {
  Instance db;
  TableConfig cfg;
  cfg.flush_entries = 8;
  db.create_table("t", std::move(cfg));
  for (int i = 0; i < 40; ++i) {
    put_row(db, "t", "r" + util::zero_pad(static_cast<std::uint64_t>(i), 3),
            "q", std::to_string(i * i));
  }
  auto snap = db.open_snapshot("t");
  const auto first = flatten(snapshot_cells(db, "t", snap));
  for (int i = 0; i < 40; ++i) put_row(db, "t", "zz", "q", std::to_string(i));
  db.flush("t");
  db.compact("t");
  const auto second = flatten(snapshot_cells(db, "t", snap));
  EXPECT_EQ(first, second);
}

TEST(Snapshot, BatchScannerAndTableScanReadTheCut) {
  Instance db(2);
  db.create_table("t");
  for (int i = 0; i < 30; ++i) {
    put_row(db, "t", util::zero_pad(static_cast<std::uint64_t>(i), 3), "q",
            "v");
  }
  db.add_splits("t", {"010", "020"});
  auto snap = db.open_snapshot("t");
  for (int i = 30; i < 60; ++i) {
    put_row(db, "t", util::zero_pad(static_cast<std::uint64_t>(i), 3), "q",
            "late");
  }

  BatchScanner bs(db, "t");
  bs.set_snapshot(snap);
  EXPECT_EQ(bs.read_all().size(), 30u);

  auto iter = core::open_table_scan(*snap);
  std::size_t n = 0;
  std::string prev;
  while (iter->has_top()) {
    EXPECT_LE(prev, iter->top_key().row);
    prev = iter->top_key().row;
    ++n;
    iter->next();
  }
  EXPECT_EQ(n, 30u);
}

TEST(Snapshot, WrongTableRejected) {
  Instance db;
  db.create_table("a");
  db.create_table("b");
  auto snap = db.open_snapshot("a");
  Scanner scan(db, "b");
  EXPECT_THROW(scan.set_snapshot(snap), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(SnapshotAdmission, ShedPolicyThrowsTypedOverload) {
  Instance db;
  TableConfig cfg;
  cfg.admission.max_inflight_scans = 1;
  cfg.admission.policy = AdmissionPolicy::kShed;
  db.create_table("t", std::move(cfg));
  put_row(db, "t", "r", "q", "v");

  const auto ctrl = db.admission("t");
  ASSERT_NE(ctrl, nullptr);
  auto ticket = ctrl->admit_scan();  // occupy the only slot
  EXPECT_EQ(ctrl->inflight_scans(), 1u);

  Scanner scan(db, "t");
  EXPECT_THROW(scan.read_all(), OverloadedError);

  // OverloadedError must be retryable (TransientError) for with_retries.
  try {
    Scanner again(db, "t");
    again.read_all();
    FAIL() << "expected OverloadedError";
  } catch (const util::TransientError&) {
  }

  ticket = AdmissionController::ScanTicket();  // release the slot
  EXPECT_EQ(ctrl->inflight_scans(), 0u);
  Scanner ok(db, "t");
  EXPECT_EQ(ok.read_all().size(), 1u);
}

TEST(SnapshotAdmission, QueuePolicyWaitsForSlot) {
  Instance db;
  TableConfig cfg;
  cfg.admission.max_inflight_scans = 1;
  cfg.admission.policy = AdmissionPolicy::kQueue;
  cfg.admission.max_queue_wait = milliseconds(2000);
  db.create_table("t", std::move(cfg));
  put_row(db, "t", "r", "q", "v");

  const auto ctrl = db.admission("t");
  auto ticket = std::make_unique<AdmissionController::ScanTicket>(
      ctrl->admit_scan());
  std::thread releaser([&] {
    std::this_thread::sleep_for(milliseconds(30));
    ticket.reset();
  });
  Scanner scan(db, "t");
  EXPECT_EQ(scan.read_all().size(), 1u);  // queued, then admitted
  releaser.join();
}

TEST(SnapshotAdmission, QueueTimeoutShedsAsOverloaded) {
  Instance db;
  TableConfig cfg;
  cfg.admission.max_inflight_scans = 1;
  cfg.admission.policy = AdmissionPolicy::kQueue;
  cfg.admission.max_queue_wait = milliseconds(5);
  db.create_table("t", std::move(cfg));
  put_row(db, "t", "r", "q", "v");

  auto ticket = db.admission("t")->admit_scan();
  Scanner scan(db, "t");
  EXPECT_THROW(scan.read_all(), OverloadedError);
}

TEST(SnapshotAdmission, ScanRateLimitMetersASession) {
  Instance db;
  TableConfig cfg;
  cfg.admission.scan_rate = 500.0;  // 2ms per token once the burst is spent
  cfg.admission.scan_burst = 1.0;
  db.create_table("t", std::move(cfg));
  put_row(db, "t", "r", "q", "v");

  auto session = db.admission("t")->make_session();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    Scanner scan(db, "t");
    scan.set_session(session);
    EXPECT_EQ(scan.read_all().size(), 1u);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Burst covers the first scan; the next three wait ~2ms each.
  EXPECT_GE(elapsed, milliseconds(4));
}

TEST(SnapshotAdmission, DeadlineAbortsMidScan) {
  Instance db;
  db.create_table("t");
  for (int i = 0; i < 2000; ++i) {
    put_row(db, "t", util::zero_pad(static_cast<std::uint64_t>(i), 5), "q",
            "v");
  }
  Scanner scan(db, "t");
  scan.set_batch_size(64);
  // The deadline is checked before each block, so the timeout must be
  // wide enough that setup + the first 64-cell block always lands
  // inside it (sanitizer builds on a loaded 1-core host included), yet
  // far smaller than the 2 s the full scan's callback sleeps add up to.
  scan.set_timeout(milliseconds(100));
  std::size_t delivered = 0;
  EXPECT_THROW(scan.for_each([&](const Key&, const Value&) {
    ++delivered;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }),
               DeadlineExceeded);
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, 2000u);
}

TEST(SnapshotAdmission, WriteOverloadSurfacesTypedThroughBatchWriter) {
  Instance db;
  TableConfig cfg;
  cfg.admission.policy = AdmissionPolicy::kShed;
  cfg.admission.write_rate = 0.001;  // effectively never refills
  cfg.admission.write_burst = 2.0;
  db.create_table("t", std::move(cfg));

  BatchWriter writer(db, "t");
  EXPECT_EQ(writer.last_error_kind(), BatchWriter::ErrorKind::kNone);
  for (int i = 0; i < 5; ++i) {
    Mutation m("r" + std::to_string(i));
    m.put("f", "q", "v");
    writer.add_mutation(m);
  }
  EXPECT_THROW(writer.flush(), OverloadedError);
  EXPECT_EQ(writer.last_error_kind(), BatchWriter::ErrorKind::kOverloaded);

  // The burst-admitted prefix was applied exactly once.
  Scanner scan(db, "t");
  EXPECT_EQ(scan.read_all().size(), 2u);
  writer.abandon();
}

TEST(SnapshotAdmission, LastErrorKindClassifiesTransientAndFatal) {
  Instance db;
  db.create_table("t");

  {
    util::fault::reset();
    util::fault::FaultSpec spec;
    spec.probability = 1.0;
    util::fault::arm(util::fault::sites::kBatchWriterFlush, spec);
    BatchWriter writer(db, "t");
    Mutation m("r");
    m.put("f", "q", "v");
    writer.add_mutation(m);
    EXPECT_THROW(writer.flush(), util::TransientError);
    EXPECT_EQ(writer.last_error_kind(), BatchWriter::ErrorKind::kTransient);
    writer.abandon();
  }
  {
    util::fault::reset();
    util::fault::FaultSpec spec;
    spec.probability = 1.0;
    spec.fatal = true;
    util::fault::arm(util::fault::sites::kBatchWriterFlush, spec);
    BatchWriter writer(db, "t");
    Mutation m("r");
    m.put("f", "q", "v");
    writer.add_mutation(m);
    EXPECT_THROW(writer.flush(), util::FatalError);
    EXPECT_EQ(writer.last_error_kind(), BatchWriter::ErrorKind::kFatal);
    writer.abandon();
  }
  util::fault::reset();
}

// ---------------------------------------------------------------------------
// Randomized property test: N scanners x M writers x compactions
// ---------------------------------------------------------------------------

// Each writer w applies cells ("w<w>", "f", zero_pad(k)) for k = 0,1,...
// strictly in order, one mutation each. Any consistent cut must
// therefore contain, per writer, EXACTLY the prefix 0..k-1 for some k —
// gaps mean a torn cut, and two reads of one snapshot must be
// byte-identical no matter what flushes/compactions did in between.
void run_snapshot_race(bool with_faults) {
  Instance db(2);
  TableConfig cfg;
  cfg.flush_entries = 64;  // constant memtable turnover
  db.create_table("t", std::move(cfg));

  if (with_faults) {
    util::fault::reset();
    util::fault::seed(20260807);
    util::fault::FaultSpec spec;
    spec.probability = 0.05;
    util::fault::arm(util::fault::sites::kMemtableFlush, spec);
    util::fault::arm(util::fault::sites::kTabletCompact, spec);
  }

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 400;
  constexpr int kScanners = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> violations{0};
  std::atomic<std::size_t> snapshots_taken{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, w] {
      const std::string row = "w" + std::to_string(w);
      for (int k = 0; k < kPerWriter; ++k) {
        Mutation m(row);
        m.put("f", util::zero_pad(static_cast<std::uint64_t>(k), 5), "v");
        db.apply("t", m);
      }
    });
  }
  threads.emplace_back([&] {  // background compactor
    while (!stop.load()) {
      try {
        db.compact("t");
      } catch (const util::TransientError&) {
        // armed fault survived the bounded retries; next round re-runs
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  for (int s = 0; s < kScanners; ++s) {
    threads.emplace_back([&, s] {
      std::mt19937 rng(static_cast<unsigned>(1234 + s));
      do {  // at least once, even if the writers finish first
        auto snap = db.open_snapshot("t");
        snapshots_taken.fetch_add(1);
        const auto first = snapshot_cells(db, "t", snap);
        // Per-writer prefix contiguity of the cut.
        std::vector<std::uint64_t> next(kWriters, 0);
        for (const auto& c : first) {
          const int w = c.key.row[1] - '0';
          const auto k = static_cast<std::uint64_t>(
              std::stoull(c.key.qualifier));
          if (w < 0 || w >= kWriters || k != next[static_cast<std::size_t>(w)]) {
            violations.fetch_add(1);
          } else {
            ++next[static_cast<std::size_t>(w)];
          }
        }
        // Stability: a re-read through the same handle after a random
        // pause (letting flushes/compactions churn) is byte-identical.
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng() % 2000));
        const auto second = snapshot_cells(db, "t", snap);
        if (flatten(first) != flatten(second)) violations.fetch_add(1);
      } while (!stop.load());
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  if (with_faults) util::fault::reset();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(snapshots_taken.load(), 0u);

  // Serial ground truth: after the race settles, the live table holds
  // every writer's full prefix.
  db.flush("t");
  db.compact("t");
  Scanner scan(db, "t");
  EXPECT_EQ(scan.read_all().size(),
            static_cast<std::size_t>(kWriters * kPerWriter));
}

TEST(SnapshotProperty, ScannersWritersCompactionsRace) {
  run_snapshot_race(/*with_faults=*/false);
}

TEST(SnapshotProperty, RaceHoldsWithFlushAndCompactionFaultsArmed) {
  run_snapshot_race(/*with_faults=*/true);
}

// Each writer w applies mutations k = 0,1,... to its own row "w<w>",
// every one carrying kUpdates cells (qualifier "<k>.<j>"). Readers pin
// the memtable while writers are inside it, so a read must hold each
// mutation whole or not at all — and, since one row lives in one tablet
// and a tablet's cut is taken at once, each writer's mutations as a
// prefix 0..n-1.
TEST(SnapshotProperty, MultiUpdateMutationsStayWhole) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 600;
  constexpr int kUpdates = 8;
  Instance db(2);
  auto scheduler = std::make_shared<CompactionScheduler>(2);
  db.attach_compaction_scheduler(scheduler);
  TableConfig cfg;
  cfg.flush_entries = 200;  // freezes and background flushes mid-race
  db.create_table("t", std::move(cfg));
  db.add_splits("t", {"w2"});

  std::atomic<int> writers_left{kWriters};
  std::atomic<std::size_t> violations{0};
  std::atomic<std::size_t> live_reads{0};
  std::atomic<std::size_t> snapshot_reads{0};

  // Validates one read; returns the mutations it saw.
  const auto check = [&](const std::vector<Cell>& cells) {
    std::vector<std::vector<int>> seen(kWriters,
                                       std::vector<int>(kPerWriter, 0));
    for (const auto& c : cells) {
      const int w = c.key.row[1] - '0';
      const int k = std::stoi(c.key.qualifier);
      if (w < 0 || w >= kWriters || k < 0 || k >= kPerWriter) {
        violations.fetch_add(1);
        continue;
      }
      ++seen[static_cast<std::size_t>(w)][static_cast<std::size_t>(k)];
    }
    for (const auto& per_writer : seen) {
      bool ended = false;  // mutations after the first missing one
      for (const int updates : per_writer) {
        if (updates != 0 && updates != kUpdates) violations.fetch_add(1);
        if (updates == 0) ended = true;
        if (updates != 0 && ended) violations.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string row = "w" + std::to_string(w);
      for (int k = 0; k < kPerWriter; ++k) {
        Mutation m(row);
        for (int j = 0; j < kUpdates; ++j) {
          m.put("f", std::to_string(k) + "." + std::to_string(j), "v");
        }
        db.apply("t", m);
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {  // live scans, one task per writer row
    std::vector<Range> ranges;
    for (int w = 0; w < kWriters; ++w) {
      ranges.push_back(Range::exact_row("w" + std::to_string(w)));
    }
    do {
      BatchScanner scan(db, "t");
      scan.set_ranges(ranges);
      check(scan.read_all());
      live_reads.fetch_add(1);
    } while (writers_left.load() > 0);
  });
  threads.emplace_back([&] {  // snapshot reads, each read twice
    do {
      auto snap = db.open_snapshot("t");
      const auto first = snapshot_cells(db, "t", snap);
      check(first);
      if (flatten(first) != flatten(snapshot_cells(db, "t", snap))) {
        violations.fetch_add(1);
      }
      snapshot_reads.fetch_add(1);
    } while (writers_left.load() > 0);
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(live_reads.load(), 0u);
  EXPECT_GT(snapshot_reads.load(), 0u);
  db.flush("t");
  Scanner scan(db, "t");
  EXPECT_EQ(scan.read_all().size(),
            static_cast<std::size_t>(kWriters * kPerWriter * kUpdates));
}

}  // namespace
}  // namespace graphulo::nosql
