// The asynchronous write path: WAL group commit (sync modes and
// durability), the background flush/compaction scheduler (racing scans,
// back-pressure, quiesce), tablet maintenance run by the writer when no
// scheduler is attached, the RFile block cache (LRU semantics,
// counters), one-shot compaction iterators, table lifetime (what keeps
// a tablet, its config and its block cache alive), and writer streams
// (the table's (writer id, seq) dedup behind exactly-once resends).
// Registered under the `concurrency` ctest label so the TSan build
// exercises every cross-thread handoff here.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/table_ops.hpp"
#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "nosql/nosql.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace graphulo::nosql {
namespace {

std::string temp_wal_path(const char* name) {
  return ::testing::TempDir() + "/graphulo_" + name + ".wal";
}

std::string cells_fingerprint(const std::vector<Cell>& cells) {
  std::string out;
  for (const auto& c : cells) {
    out += c.key.row + "|" + c.key.family + "|" + c.key.qualifier + "|" +
           std::to_string(c.key.ts) + "|" + (c.key.deleted ? "D" : "-") + "|" +
           c.value + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// BlockCache

TEST(BlockCache, MissesInsertThenHit) {
  BlockCache cache(1 << 20, 1);
  auto data = std::make_shared<std::vector<int>>(16);
  BlockCache::Pin pin(data, data.get());
  EXPECT_EQ(cache.find(1, 0), nullptr);  // miss does not insert
  cache.insert(1, 0, pin, 100);
  EXPECT_EQ(cache.find(1, 0), pin);      // now resident
  EXPECT_EQ(cache.find(1, 1), nullptr);  // different block
  EXPECT_EQ(cache.find(2, 0), nullptr);  // different file
  cache.insert(1, 1, pin, 100);
  cache.insert(2, 0, pin, 100);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.bytes, 300u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(BlockCache, EvictsLeastRecentlyUsedWithinBudget) {
  BlockCache cache(250, 1);  // room for two 100-byte blocks
  auto data = std::make_shared<std::vector<int>>(16);
  BlockCache::Pin pin(data, data.get());
  cache.insert(1, 0, pin, 100);
  cache.insert(1, 1, pin, 100);
  EXPECT_NE(cache.find(1, 0), nullptr);  // block 0 now MRU
  cache.insert(1, 2, pin, 100);          // evicts block 1 (LRU)
  EXPECT_NE(cache.find(1, 0), nullptr);
  EXPECT_EQ(cache.find(1, 1), nullptr);  // was evicted
  const auto s = cache.stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.bytes, 300u);
}

TEST(BlockCache, OversizedBlockStillCachedAlone) {
  // A single block larger than the budget is kept (never evict down to
  // zero entries), so pathological block sizes degrade instead of
  // looping.
  BlockCache cache(50, 1);
  auto data = std::make_shared<std::vector<int>>(16);
  BlockCache::Pin pin(data, data.get());
  cache.insert(1, 0, pin, 400);
  EXPECT_NE(cache.find(1, 0), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(BlockCache, EraseFileDropsOnlyThatFile) {
  BlockCache cache(1 << 20, 2);
  auto data = std::make_shared<std::vector<int>>(16);
  BlockCache::Pin pin(data, data.get());
  for (std::uint64_t b = 0; b < 8; ++b) {
    cache.insert(1, b, pin, 10);
    cache.insert(2, b, pin, 10);
  }
  cache.erase_file(1);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 8u);
  EXPECT_EQ(s.bytes, 80u);
  EXPECT_EQ(cache.find(1, 0), nullptr);  // gone
  EXPECT_NE(cache.find(2, 0), nullptr);  // untouched
}

TEST(BlockCache, ScansPopulateAndHitThroughTablet) {
  TableConfig cfg;
  cfg.flush_entries = 100;
  cfg.rfile.index_stride = 16;
  cfg.rfile.cache_bytes = 1 << 20;
  Instance db(1);
  db.create_table("t", cfg);
  for (int i = 0; i < 500; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "v" + std::to_string(i));
    db.apply("t", m);
  }
  db.flush("t");
  std::vector<Cell> first, second;
  {
    Scanner scan(db, "t");
    first = scan.read_all();
  }
  {
    Scanner scan(db, "t");
    second = scan.read_all();
  }
  EXPECT_EQ(cells_fingerprint(first), cells_fingerprint(second));
  const auto s = db.tablets_for_range("t", Range::all())[0].first->stats();
  EXPECT_GT(s.cache_misses, 0u);  // first scan populated
  EXPECT_GT(s.cache_hits, 0u);    // second scan hit
}

TEST(BlockCache, TinyBudgetEvictsUnderScan) {
  TableConfig cfg;
  cfg.flush_entries = 200;
  cfg.rfile.index_stride = 8;
  cfg.rfile.cache_bytes = 512;  // a handful of blocks at most
  Instance db(1);
  db.create_table("t", cfg);
  for (int i = 0; i < 1000; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "value-" + std::to_string(i));
    db.apply("t", m);
  }
  db.flush("t");
  for (int rep = 0; rep < 2; ++rep) {
    Scanner scan(db, "t");
    EXPECT_EQ(scan.read_all().size(), 1000u);
  }
  const auto s = db.tablets_for_range("t", Range::all())[0].first->stats();
  EXPECT_GT(s.cache_evictions, 0u);
}

// ---------------------------------------------------------------------------
// WAL sync modes

TEST(WalGroupCommit, PerAppendModeIsDurableRecordByRecord) {
  const auto path = temp_wal_path("per_append");
  std::remove(path.c_str());
  WalOptions opts;
  opts.sync_mode = WalSyncMode::kPerAppend;
  {
    WriteAheadLog wal(path, opts);
    Mutation m("r");
    m.put("f", "q", "v");
    wal.log_mutation("t", m, 1);
    // per-append: durable the moment the call returns, no sync needed.
    EXPECT_EQ(wal.durable_seq(), 1u);
    wal.log_create_table("t2");
    EXPECT_EQ(wal.durable_seq(), 2u);
  }
  std::size_t replayed = 0;
  replay_wal(path, [&](const WalRecord&) { ++replayed; });
  EXPECT_EQ(replayed, 2u);
  std::remove(path.c_str());
}

TEST(WalGroupCommit, GroupModeBlocksUntilDurable) {
  const auto path = temp_wal_path("group");
  std::remove(path.c_str());
  WalOptions opts;
  opts.sync_mode = WalSyncMode::kGroup;
  {
    WriteAheadLog wal(path, opts);
    for (int i = 0; i < 20; ++i) {
      Mutation m("r" + std::to_string(i));
      m.put("f", "q", "v");
      wal.log_mutation("t", m, static_cast<Timestamp>(i + 1));
      // Group commit still blocks the appender until ITS record is
      // durable — batching trades latency, not the durability contract.
      EXPECT_GE(wal.durable_seq(), static_cast<std::uint64_t>(i + 1));
    }
  }
  std::size_t replayed = 0;
  replay_wal(path, [&](const WalRecord&) { ++replayed; });
  EXPECT_EQ(replayed, 20u);
  std::remove(path.c_str());
}

TEST(WalGroupCommit, GroupModeManyConcurrentAppenders) {
  const auto path = temp_wal_path("group_mt");
  std::remove(path.c_str());
  WalOptions opts;
  opts.sync_mode = WalSyncMode::kGroup;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  {
    WriteAheadLog wal(path, opts);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          Mutation m("t" + std::to_string(t) + "-" + std::to_string(i));
          m.put("f", "q", "v");
          wal.log_mutation("tbl", m, 1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(wal.durable_seq(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  // Every record intact and strictly ordered by sequence.
  std::uint64_t prev = 0;
  std::size_t replayed = 0;
  replay_wal(path, [&](const WalRecord& r) {
    EXPECT_GT(r.seq, prev);
    prev = r.seq;
    ++replayed;
  });
  EXPECT_EQ(replayed, static_cast<std::size_t>(kThreads * kPerThread));
  std::remove(path.c_str());
}

TEST(WalGroupCommit, IntervalModeSyncMakesEverythingDurable) {
  const auto path = temp_wal_path("interval");
  std::remove(path.c_str());
  WalOptions opts;
  opts.sync_mode = WalSyncMode::kInterval;
  opts.max_batch_latency = std::chrono::microseconds(100000);
  {
    WriteAheadLog wal(path, opts);
    for (int i = 0; i < 10; ++i) {
      Mutation m("r" + std::to_string(i));
      m.put("f", "q", "v");
      wal.log_mutation("t", m, 1);
    }
    wal.sync();
    EXPECT_EQ(wal.durable_seq(), 10u);
  }
  std::size_t replayed = 0;
  replay_wal(path, [&](const WalRecord&) { ++replayed; });
  EXPECT_EQ(replayed, 10u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Background flush/compaction

TEST(BackgroundCompaction, CountersAdvanceAndDataSurvives) {
  TableConfig cfg;
  cfg.flush_entries = 50;
  cfg.compaction.level0_trigger = 2;
  Instance db(1);
  auto sched = std::make_shared<CompactionScheduler>(2);
  db.attach_compaction_scheduler(sched);
  db.create_table("t", cfg);
  constexpr int kCells = 2000;
  for (int i = 0; i < kCells; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 5));
    m.put("f", "q", "v" + std::to_string(i));
    db.apply("t", m);
  }
  db.quiesce_compactions();
  const auto tablets = db.tablets_for_range("t", Range::all());
  ASSERT_EQ(tablets.size(), 1u);
  const auto s = tablets[0].first->stats();
  EXPECT_GT(s.compactions_queued, 0u);
  EXPECT_GT(s.compactions_completed, 0u);
  EXPECT_EQ(s.compactions_in_flight, 0u);
  EXPECT_GT(s.minor_compactions, 0u);
  EXPECT_GT(s.major_compactions, 0u);
  const auto sstats = sched->stats();
  EXPECT_GT(sstats.queued, 0u);
  EXPECT_EQ(sstats.queued, sstats.completed);
  Scanner scan(db, "t");
  EXPECT_EQ(scan.read_all().size(), static_cast<std::size_t>(kCells));
}

// The core property: scans racing background compactions observe
// exactly the same cells, byte for byte, as an inline (quiesced)
// execution of the identical workload.
TEST(BackgroundCompaction, RacingScansMatchQuiescedRunByteForByte) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 800;
  auto workload = [](Instance& db) {
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&db, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          // Disjoint key ranges per writer; the wrap-around overwrites
          // the first keys again, exercising newest-wins across the
          // memtable / frozen / file boundary without cross-thread
          // write races. Timestamps are EXPLICIT so the final state is
          // independent of thread interleaving (the instance clock
          // would hand out schedule-dependent values).
          Mutation m("w" + std::to_string(w) + "-" +
                     util::zero_pad(static_cast<std::uint64_t>(i % 790), 4));
          m.put("f", "q", "", static_cast<Timestamp>(i + 1),
                "v" + std::to_string(i));
          db.apply("t", m);
        }
      });
    }
    return writers;
  };

  // Reference: inline compactions, single-threaded writers (sequential
  // per-thread order preserved by running threads one after another).
  Instance ref(1);
  TableConfig ref_cfg;
  ref_cfg.flush_entries = 100;
  ref_cfg.compaction.level0_trigger = 2;
  ref.create_table("t", ref_cfg);
  {
    auto writers = workload(ref);
    for (auto& th : writers) th.join();
  }
  ref.compact("t");
  std::string ref_fp;
  {
    Scanner scan(ref, "t");
    ref_fp = cells_fingerprint(scan.read_all());
  }

  // Racy run: background compactions on 3 threads, scans fired the
  // whole time, tiny flush threshold so installs churn constantly.
  Instance db(2);
  auto sched = std::make_shared<CompactionScheduler>(3);
  db.attach_compaction_scheduler(sched);
  TableConfig cfg;
  cfg.flush_entries = 100;
  cfg.compaction.level0_trigger = 2;
  cfg.rfile.cache_bytes = 64 * 1024;
  db.create_table("t", cfg);
  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Scanner scan(db, "t");
      const auto cells = scan.read_all();
      // Mid-race scans see a consistent sorted snapshot.
      for (std::size_t i = 1; i < cells.size(); ++i) {
        ASSERT_TRUE(cells[i - 1].key < cells[i].key ||
                    !(cells[i].key < cells[i - 1].key));
      }
    }
  });
  {
    auto writers = workload(db);
    for (auto& th : writers) th.join();
  }
  // All data applied; scans while compactions still churn must already
  // be byte-identical to the reference.
  {
    Scanner scan(db, "t");
    EXPECT_EQ(cells_fingerprint(scan.read_all()), ref_fp);
  }
  stop.store(true, std::memory_order_release);
  scanner.join();
  db.quiesce_compactions();
  // Background majors ran before the explicit one below.
  EXPECT_GT(db.tablets_for_range("t", Range::all())[0].first->stats()
                .major_compactions,
            0u);
  db.compact("t");
  {
    Scanner scan(db, "t");
    EXPECT_EQ(cells_fingerprint(scan.read_all()), ref_fp);
  }
  const auto s = db.tablets_for_range("t", Range::all())[0].first->stats();
  EXPECT_GT(s.compactions_completed, 0u);
}

TEST(BackgroundCompaction, BackPressureBoundsFileCount) {
  TableConfig cfg;
  cfg.flush_entries = 20;
  cfg.compaction.level0_trigger = 2;
  cfg.max_tablet_files = 6;
  Instance db(1);
  auto sched = std::make_shared<CompactionScheduler>(2);
  db.attach_compaction_scheduler(sched);
  db.create_table("t", cfg);
  for (int i = 0; i < 3000; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 5));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  db.quiesce_compactions();
  const auto s = db.tablets_for_range("t", Range::all())[0].first->stats();
  // Back-pressure + majors keep the file count at or under the ceiling.
  EXPECT_LE(s.file_count, cfg.max_tablet_files);
  EXPECT_GT(s.major_compactions, 0u);
  Scanner scan(db, "t");
  EXPECT_EQ(scan.read_all().size(), 3000u);
}

TEST(BackgroundCompaction, FlushDrainsFrozenMemtablesSynchronously) {
  TableConfig cfg;
  cfg.flush_entries = 10;
  Instance db(1);
  auto sched = std::make_shared<CompactionScheduler>(1);
  db.attach_compaction_scheduler(sched);
  db.create_table("t", cfg);
  for (int i = 0; i < 95; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 3));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  db.flush("t");  // synchronous contract: nothing buffered on return
  const auto s = db.tablets_for_range("t", Range::all())[0].first->stats();
  EXPECT_EQ(s.memtable_entries, 0u);
  EXPECT_EQ(s.frozen_memtables, 0u);
  EXPECT_EQ(db.entry_estimate("t"), 95u);
}

TEST(BackgroundCompaction, CheckpointQuiescesAndRoundTrips) {
  const auto wal_path = temp_wal_path("bg_ckpt");
  const auto ckpt_path = ::testing::TempDir() + "/graphulo_bg_ckpt.img";
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
  {
    Instance db(1);
    db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
    auto sched = std::make_shared<CompactionScheduler>(2);
    db.attach_compaction_scheduler(sched);
    TableConfig cfg;
    cfg.flush_entries = 64;
    db.create_table("t", cfg);
    for (int i = 0; i < 500; ++i) {
      Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
      m.put("f", "q", "v" + std::to_string(i));
      db.apply("t", m);
    }
    db.sync_wal();
    write_checkpoint(db, ckpt_path);
  }
  Instance recovered(1);
  recover_instance(recovered, ckpt_path, wal_path);
  Scanner scan(recovered, "t");
  EXPECT_EQ(scan.read_all().size(), 500u);
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
}

// ---------------------------------------------------------------------------
// Zero-cell flush early-outs

TEST(FlushEarlyOut, EmptyMemtableInstallsNoFile) {
  TableConfig cfg;
  Tablet tablet({"", ""}, std::make_shared<const TableConfig>(cfg));
  tablet.flush();  // nothing buffered
  EXPECT_EQ(tablet.stats().file_count, 0u);
  EXPECT_EQ(tablet.stats().minor_compactions, 0u);
  Mutation m("r");
  m.put("f", "q", "v");
  tablet.apply(m, 1);
  tablet.flush();
  EXPECT_EQ(tablet.stats().file_count, 1u);
  const auto before = tablet.stats().minor_compactions;
  tablet.flush();  // empty again: no new file, no counted compaction
  EXPECT_EQ(tablet.stats().file_count, 1u);
  EXPECT_EQ(tablet.stats().minor_compactions, before);
}

TEST(FlushEarlyOut, MincStackDroppingEverythingInstallsNoFile) {
  TableConfig cfg;
  IteratorSetting drop_all;
  drop_all.name = "drop_all";
  drop_all.scopes = kMincScope;
  drop_all.factory = [](IterPtr) -> IterPtr {
    return std::make_unique<VectorIterator>(
        std::make_shared<const std::vector<Cell>>());
  };
  cfg.attach_iterator(std::move(drop_all));
  Tablet tablet({"", ""}, std::make_shared<const TableConfig>(cfg));
  Mutation m("r");
  m.put("f", "q", "v");
  tablet.apply(m, 1);
  tablet.flush();
  EXPECT_EQ(tablet.stats().file_count, 0u);
  EXPECT_EQ(tablet.stats().memtable_entries, 0u);
}

// ---------------------------------------------------------------------------
// Tablet maintenance without a scheduler

/// Table "t" on an Instance without a scheduler, flushing every 4
/// entries, whose first flush blocks inside its minc stack until
/// `released` opens: the writer that filled the memtable is then held
/// in the middle of its own flush.
struct HeldFlushTable {
  std::latch entered{1};
  std::latch released{1};
  std::atomic<int> builds{0};
  Instance db{1};

  HeldFlushTable() {
    TableConfig cfg;
    cfg.flush_entries = 4;
    IteratorSetting hold;
    hold.name = "hold";
    hold.scopes = kMincScope;
    hold.factory = [this](IterPtr source) {
      if (builds.fetch_add(1) == 0) {
        entered.count_down();
        released.wait();
      }
      return source;
    };
    cfg.attach_iterator(std::move(hold));
    db.create_table("t", cfg);
  }

  void put(int i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 2));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
};

/// The bounded wait of the tests below: a call that waits for the held
/// flush fails the test instead of hanging it.
std::chrono::steady_clock::time_point held_flush_deadline() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(2);
}

// The writer runs its flush outside the tablet lock: while the flush is
// held, another writer and a scan of the same tablet finish.
TEST(TabletMaintenance, WritersAndScansProceedDuringInlineFlush) {
  HeldFlushTable t;
  for (int i = 0; i < 3; ++i) t.put(i);
  std::thread filler([&] { t.put(3); });  // fills the memtable
  t.entered.wait();

  const auto deadline = held_flush_deadline();
  auto writer = std::async(std::launch::async, [&] { t.put(4); });
  const bool wrote = writer.wait_until(deadline) == std::future_status::ready;
  auto scan = std::async(std::launch::async, [&] {
    Scanner s(t.db, "t");
    return s.read_all().size();
  });
  const bool scanned = scan.wait_until(deadline) == std::future_status::ready;
  t.released.count_down();
  filler.join();
  writer.get();
  EXPECT_TRUE(wrote) << "a write waited for another writer's flush";
  EXPECT_TRUE(scanned) << "a scan waited for a writer's flush";
  EXPECT_EQ(scan.get(), 5u);  // four frozen cells and the new one
}

// A writer that fills a memtable while another writer's flush runs only
// freezes it; the running drain writes it out too.
TEST(TabletMaintenance, FreezeDuringInlineFlushJoinsThatDrain) {
  HeldFlushTable t;
  for (int i = 0; i < 3; ++i) t.put(i);
  std::thread filler([&] { t.put(3); });
  t.entered.wait();
  const auto tablet = t.db.tablets_for_range("t", Range::all())[0].first;

  const auto deadline = held_flush_deadline();
  auto writer = std::async(std::launch::async, [&] {
    for (int i = 4; i < 8; ++i) t.put(i);
  });
  const bool wrote = writer.wait_until(deadline) == std::future_status::ready;
  TabletStats during;
  if (wrote) during = tablet->stats();
  t.released.count_down();
  filler.join();
  writer.get();
  ASSERT_TRUE(wrote) << "a write waited for another writer's flush";
  EXPECT_EQ(during.frozen_memtables, 2u);
  EXPECT_EQ(during.compactions_in_flight, 1u);  // the held minor task

  const auto after = tablet->stats();
  EXPECT_EQ(after.frozen_memtables, 0u);
  EXPECT_EQ(after.minor_compactions, 2u);
  EXPECT_EQ(after.file_count, 2u);
  EXPECT_EQ(t.builds.load(), 2);
  Scanner scan(t.db, "t");
  EXPECT_EQ(scan.read_all().size(), 8u);
}

// Four writers without a scheduler: each runs the flushes and
// compactions it triggers while the others keep writing, freeze
// memtables for its drain, and wait on back-pressure.
// Overwrites cross the memtable / frozen / file boundary with explicit
// timestamps, so the racing run must read exactly like the same writes
// applied one writer at a time.
TEST(TabletMaintenance, RacingWritersWithoutSchedulerMatchSerialRun) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 600;
  const auto write = [](Instance& db, int w) {
    for (int i = 0; i < kPerWriter; ++i) {
      Mutation m("w" + std::to_string(w) + "-" +
                 util::zero_pad(static_cast<std::uint64_t>(i % 500), 3));
      m.put("f", "q", "", static_cast<Timestamp>(i + 1),
            "v" + std::to_string(i));
      db.apply("t", m);
    }
  };
  TableConfig cfg;
  cfg.flush_entries = 50;
  cfg.compaction.level0_trigger = 2;
  cfg.max_tablet_files = 4;
  const auto run = [&](bool racing) {
    Instance db(1);
    db.create_table("t", cfg);
    if (racing) {
      std::vector<std::thread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back(write, std::ref(db), w);
      }
      for (auto& th : writers) th.join();
    } else {
      for (int w = 0; w < kWriters; ++w) write(db, w);
    }
    EXPECT_GT(db.tablets_for_range("t", Range::all())[0]
                  .first->stats()
                  .major_compactions,
              0u);
    std::vector<std::string> fingerprints;
    Scanner live(db, "t");
    fingerprints.push_back(cells_fingerprint(live.read_all()));
    db.compact("t");
    Scanner compacted(db, "t");
    fingerprints.push_back(cells_fingerprint(compacted.read_all()));
    return fingerprints;
  };
  const auto serial = run(false);
  EXPECT_EQ(serial[0], serial[1]);
  EXPECT_EQ(run(true), serial);
}

// ---------------------------------------------------------------------------
// Memtable pins

// One writer inserts while a reader, without any lock, pins the same
// memtable and walks it again and again. Keys go in scrambled order, so
// new entries land before, between and after the ones a pin sees.
TEST(MemtablePin, ReaderDuringInserts) {
  constexpr std::uint64_t kKeys = 100000;
  const auto key_of = [](std::uint64_t i) {
    return util::zero_pad((i * 7919) % kKeys, 6);  // a permutation
  };
  const auto mem = std::make_shared<Memtable>();
  std::atomic<bool> done{false};
  std::atomic<bool> pinned_midway{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      // Halfway, wait for the reader to pin: some pin is then sure to be
      // walked while the second half goes in.
      while (i == kKeys / 2 && !pinned_midway.load()) {
        std::this_thread::yield();
      }
      Mutation m(key_of(i));
      m.put("f", "q", std::to_string(i));
      mem->apply(m, static_cast<Timestamp>(i + 1));
    }
    done.store(true);
  });

  std::size_t partial_pins = 0;
  std::size_t violations = 0;
  std::uint64_t probe = 0;
  bool last_round = false;
  while (!last_round) {
    last_round = done.load();
    const MemtablePin pin = mem->pin();
    if (pin.seq > 0 && pin.seq < kKeys) {
      ++partial_pins;
      pinned_midway.store(true);
    }
    const auto it = pin.iterator();
    // Exactly the pinned prefix: seq distinct rows in ascending order,
    // each written by one of the first seq mutations.
    const auto cells = drain(*it, Range::all());
    if (cells.size() != pin.seq) ++violations;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::uint64_t i = std::stoull(cells[c].value);
      if (i >= pin.seq || key_of(i) != cells[c].key.row) ++violations;
      if (c > 0 && !(cells[c - 1].key.row < cells[c].key.row)) ++violations;
    }
    // A point seek inside the prefix finds its one entry.
    if (pin.seq > 0) {
      probe = (probe + 104729) % pin.seq;
      const auto point = drain(*it, Range::exact_row(key_of(probe)));
      if (point.size() != 1 || point[0].value != std::to_string(probe)) {
        ++violations;
      }
    }
  }
  writer.join();
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(partial_pins, 0u);
  EXPECT_EQ(mem->pin().seq, kKeys);
}

// ---------------------------------------------------------------------------
// One-shot compaction iterators

// table_scale's iterator belongs to the compaction it rides. Here a
// background compaction falls due while it runs: three L0 files and two
// frozen memtables wait behind a held scheduler worker, so the queued
// flush trips the L0 trigger. That compaction must not scale the cells.
TEST(TableOps, OneShotIteratorRunsOnlyInItsCompaction) {
  Instance db(1);
  TableConfig cfg;
  cfg.flush_entries = 50;
  db.create_table("t", cfg);
  const auto put = [&db](int i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", encode_double(1.0));
    db.apply("t", m);
  };
  for (int i = 0; i < 150; ++i) put(i);  // three inline flushes
  auto sched = std::make_shared<CompactionScheduler>(1);
  db.attach_compaction_scheduler(sched);
  std::promise<void> gate;
  ASSERT_TRUE(sched->enqueue(
      [opened = gate.get_future().share()] { opened.wait(); }));
  for (int i = 150; i < 250; ++i) put(i);  // two freezes, flush queued
  const auto stats =
      db.tablets_for_range("t", Range::all())[0].first->stats();
  ASSERT_EQ(stats.file_count, 3u);
  ASSERT_EQ(stats.frozen_memtables, 2u);

  std::jthread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.set_value();
  });
  core::table_scale(db, "t", 2.0);
  releaser.join();
  sched->drain();

  Scanner scan(db, "t");
  const auto cells = scan.read_all();
  ASSERT_EQ(cells.size(), 250u);
  std::size_t wrong = 0;
  for (const auto& c : cells) {
    if (decode_double(c.value) != 2.0) ++wrong;
  }
  EXPECT_EQ(wrong, 0u) << "first value " << *decode_double(cells[0].value);
}

// ---------------------------------------------------------------------------
// Table lifetime

TEST(TableLifetime, DeleteTableWaitsForQueuedFlush) {
  Instance db(1);
  auto sched = std::make_shared<CompactionScheduler>(1);
  db.attach_compaction_scheduler(sched);
  // Hold the only worker, so the table's background flush stays queued
  // until the gate opens.
  std::promise<void> gate;
  ASSERT_TRUE(sched->enqueue(
      [opened = gate.get_future().share()] { opened.wait(); }));
  TableConfig cfg;
  cfg.flush_entries = 4;
  db.create_table("t", cfg);
  for (int i = 0; i < 8; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 2));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  ASSERT_EQ(db.tablets_for_range("t", Range::all())[0]
                .first->stats()
                .frozen_memtables,
            2u);

  std::atomic<bool> released{false};
  std::jthread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true);
    gate.set_value();
  });
  // delete_table returns only after the queued flush of its tablet has
  // run.
  db.delete_table("t");
  EXPECT_TRUE(released.load())
      << "delete_table returned while a flush of its tablet was queued";
  releaser.join();
  sched->drain();
  EXPECT_FALSE(db.table_exists("t"));
}

// A snapshot handle reads its RFiles through the table's block cache:
// it must keep that cache alive after the table is dropped.
TEST(TableLifetime, SnapshotScansAfterDeleteOfCachedTable) {
  Instance db(1);
  TableConfig cfg;
  cfg.rfile.cache_bytes = 1 << 20;
  db.create_table("t", cfg);
  for (int i = 0; i < 20; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  db.flush("t");  // the cut's cells live in an RFile read through the cache
  auto snap = db.open_snapshot("t");
  db.delete_table("t");
  Scanner pinned(db, "t");
  pinned.set_snapshot(snap);
  EXPECT_EQ(pinned.read_all().size(), 20u);
}

// A tablet handle from tablets_for_range reads with its table's config:
// it must keep that config alive after the table is dropped.
TEST(TableLifetime, TabletOutlivesDeletedTable) {
  Instance db(1);
  db.create_table("t");
  for (int i = 0; i < 20; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  const auto tablet = db.tablets_for_range("t", Range::all())[0].first;
  db.delete_table("t");
  const auto snap = tablet->open_snapshot();
  EXPECT_EQ(drain(*snap->scan_stack(), Range::all()).size(), 20u);
  EXPECT_EQ(drain(*tablet->scan_stack(), Range::all()).size(), 20u);
}

// A queued background flush keeps its tablet alive, and the tablet its
// config, even when the scheduler outlives the instance.
TEST(TableLifetime, SchedulerOutlivesInstance) {
  auto sched = std::make_shared<CompactionScheduler>(1);
  std::promise<void> gate;
  ASSERT_TRUE(sched->enqueue(
      [opened = gate.get_future().share()] { opened.wait(); }));
  std::shared_ptr<Tablet> tablet;
  {
    Instance db(1);
    db.attach_compaction_scheduler(sched);
    TableConfig cfg;
    cfg.flush_entries = 4;
    db.create_table("t", cfg);
    for (int i = 0; i < 8; ++i) {
      Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 2));
      m.put("f", "q", "v");
      db.apply("t", m);
    }
    tablet = db.tablets_for_range("t", Range::all())[0].first;
    ASSERT_EQ(tablet->stats().frozen_memtables, 2u);
  }
  gate.set_value();
  sched->drain();  // the queued flush runs after its instance is gone
  EXPECT_EQ(tablet->stats().frozen_memtables, 0u);
  EXPECT_EQ(tablet->stats().file_count, 2u);
  EXPECT_EQ(drain(*tablet->scan_stack(), Range::all()).size(), 8u);
}

// A live table scan reads its RFile blocks through the table's block
// cache: the scan stack must keep that cache alive after the drop.
TEST(TableLifetime, TableScanOutlivesDeleteTable) {
  Instance db(1);
  TableConfig cfg;
  cfg.rfile.index_stride = 8;  // many blocks, most read after the drop
  cfg.rfile.cache_bytes = 1 << 20;
  db.create_table("t", cfg);
  for (int i = 0; i < 100; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  db.flush("t");
  const auto scan = core::open_table_scan(db, "t");  // seeked: block 0 read
  db.delete_table("t");
  std::size_t cells = 0;
  for (; scan->has_top(); scan->next()) ++cells;
  EXPECT_EQ(cells, 100u);
}

// A BatchWriter keeps its table's admission controller: a flush after
// delete_table fails with the missing-table error.
TEST(TableLifetime, WriterFlushesAfterDeleteTable) {
  Instance db(1);
  db.create_table("t");
  BatchWriter writer(db, "t");
  Mutation first("a");
  first.put("f", "q", "v");
  writer.add_mutation(std::move(first));
  writer.flush();  // resolves the table's admission controller
  Mutation second("b");
  second.put("f", "q", "v");
  writer.add_mutation(std::move(second));
  db.delete_table("t");
  EXPECT_THROW(writer.flush(), std::invalid_argument);
  EXPECT_EQ(writer.mutations_written(), 1u);
  EXPECT_EQ(writer.mutations_pending(), 1u);
  writer.abandon();
}

// A scan ticket (as a remote scan lease holds one) keeps its table's
// admission controller: releasing it after delete_table is safe.
TEST(TableLifetime, ScanTicketOutlivesDeleteTable) {
  Instance db(1);
  TableConfig cfg;
  cfg.admission.max_inflight_scans = 1;
  db.create_table("t", cfg);
  auto ticket = db.admission("t")->admit_scan();
  ASSERT_TRUE(ticket);
  db.delete_table("t");
  ticket = AdmissionController::ScanTicket();  // releases the slot
  EXPECT_FALSE(ticket);
}

TEST(TableLifetime, RetiredTabletsAreFreed) {
  Instance db(2);
  db.create_table("t");
  for (int i = 0; i < 20; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  const std::weak_ptr<Tablet> presplit =
      db.tablets_for_range("t", Range::all())[0].first;
  // An open snapshot pins the cut's data, not the tablet it came from.
  auto snap = db.open_snapshot("t");
  db.add_splits("t", {"0010"});
  EXPECT_TRUE(presplit.expired()) << "the pre-split tablet outlived add_splits";
  Scanner pinned(db, "t");
  pinned.set_snapshot(snap);
  EXPECT_EQ(pinned.read_all().size(), 20u);
  snap.reset();

  const std::weak_ptr<Tablet> dropped =
      db.tablets_for_range("t", Range::all())[0].first;
  db.delete_table("t");
  EXPECT_TRUE(dropped.expired()) << "a dropped table's tablet outlived it";
}

// ---------------------------------------------------------------------------
// Writer streams: Instance::apply's (writer id, seq) dedup

/// Row r of a sum table gets +1.0 once per applied mutation, so a cell
/// reading 2.0 is a mutation applied twice.
Mutation increment(int row) {
  Mutation m(util::zero_pad(static_cast<std::uint64_t>(row), 6));
  m.put("f", "q", encode_double(1.0));
  return m;
}

/// Every cell of `table` as row -> summed value.
std::map<std::string, double> sums(Instance& db, const std::string& table) {
  std::map<std::string, double> out;
  Scanner scanner(db, table);
  for (const auto& cell : scanner.read_all()) {
    out[cell.key.row] = decode_double(cell.value).value_or(-1.0);
  }
  return out;
}

std::map<std::string, double> ones(int rows) {
  std::map<std::string, double> out;
  for (int r = 0; r < rows; ++r) out[increment(r).row()] = 1.0;
  return out;
}

TEST(WriteStream, ResendAndOverlapApplyOnce) {
  Instance db;
  db.create_table("t", core::sum_table_config());
  std::size_t applied = 0, skipped = 0;
  const auto send = [&](std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t seq = first; seq < first + count; ++seq) {
      ++(db.apply("t", increment(static_cast<int>(seq)), "w", seq)
             ? applied
             : skipped);
    }
  };
  send(0, 8);
  EXPECT_EQ(applied, 8u);
  EXPECT_EQ(skipped, 0u);
  send(0, 8);  // the whole stream again: nothing lands
  EXPECT_EQ(applied, 8u);
  EXPECT_EQ(skipped, 8u);
  send(4, 8);  // overlapping continuation: only seq 8..11 are new
  EXPECT_EQ(applied, 12u);
  EXPECT_EQ(skipped, 12u);
  EXPECT_EQ(sums(db, "t"), ones(12));
}

TEST(WriteStream, AbandonedWriterResendsOnceThroughAFreshWriter) {
  constexpr int kRows = 10;
  Instance db;
  db.create_table("t", core::sum_table_config());
  util::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.initial_backoff = std::chrono::microseconds(1);
  {
    BatchWriter writer(db, "t", 4 << 20, retry, "stream");
    for (int r = 0; r < kRows; ++r) writer.add_mutation(increment(r));
    // Hits 1-4 apply seq 0..3; seq 4 fails both of its attempts.
    util::fault::FaultSpec spec;
    spec.fire_on_hits = {5, 6};
    util::fault::arm(util::fault::sites::kBatchWriterFlush, spec);
    EXPECT_THROW(writer.flush(), util::TransientError);
    util::fault::reset();
    EXPECT_EQ(writer.mutations_written(), 4u);
    writer.abandon();
  }
  // A fresh writer under the same id regenerates the whole stream.
  BatchWriter again(db, "t", 4 << 20, retry, "stream");
  for (int r = 0; r < kRows; ++r) again.add_mutation(increment(r));
  again.close();
  EXPECT_EQ(again.mutations_written(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(sums(db, "t"), ones(kRows));
}

TEST(WriteStream, TwoIdsDoNotInterfere) {
  Instance db;
  db.create_table("t", core::sum_table_config());
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    EXPECT_TRUE(db.apply("t", increment(static_cast<int>(seq)), "a", seq));
  }
  // Stream b starts at 0 of its own: a's mark does not skip it.
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    EXPECT_TRUE(db.apply("t", increment(static_cast<int>(seq)), "b", seq));
  }
  EXPECT_FALSE(db.apply("t", increment(0), "b", 2));
  EXPECT_TRUE(db.apply("t", increment(3), "b", 3));
  // The same id into another table is another stream.
  db.create_table("u", core::sum_table_config());
  EXPECT_TRUE(db.apply("u", increment(0), "a", 0));
  const auto t = sums(db, "t");
  EXPECT_EQ(t.at(increment(0).row()), 2.0);
  EXPECT_EQ(t.at(increment(3).row()), 2.0);
  EXPECT_EQ(t.at(increment(4).row()), 1.0);
  EXPECT_EQ(sums(db, "u"), ones(1));
}

TEST(WriteStream, DeleteTableForgetsMarks) {
  Instance db;
  db.create_table("t", core::sum_table_config());
  EXPECT_TRUE(db.apply("t", increment(0), "w", 0));
  EXPECT_FALSE(db.apply("t", increment(0), "w", 0));
  db.delete_table("t");
  db.create_table("t", core::sum_table_config());
  EXPECT_TRUE(db.apply("t", increment(0), "w", 0));
  EXPECT_EQ(sums(db, "t"), ones(1));
}

// Two threads resend one stream at once: each seq lands exactly once,
// whichever thread gets to it first.
TEST(WriteStream, ConcurrentResendsApplyOnce) {
  constexpr int kRows = 2000;
  Instance db;
  db.create_table("t", core::sum_table_config());
  std::atomic<int> ready{0};
  const auto resend = [&] {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    std::size_t applied = 0;
    for (int r = 0; r < kRows; ++r) {
      if (db.apply("t", increment(r), "w", static_cast<std::uint64_t>(r))) {
        ++applied;
      }
    }
    return applied;
  };
  auto first = std::async(std::launch::async, resend);
  auto second = std::async(std::launch::async, resend);
  EXPECT_EQ(first.get() + second.get(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(sums(db, "t"), ones(kRows));
}

}  // namespace
}  // namespace graphulo::nosql
