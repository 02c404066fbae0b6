// Fault injection, retry/recovery discipline, checkpointing, and the
// end-to-end crash-consistency property test: the whole failure model
// of DESIGN.md §8 under deterministic injected faults.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/tablemult.hpp"
#include "nosql/nosql.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace graphulo {
namespace {

using core::TableMultOptions;
using core::table_mult;
using nosql::BatchWriter;
using nosql::Cell;
using nosql::CombinerIterator;
using nosql::Instance;
using nosql::Mutation;
using nosql::Scanner;
using nosql::TableConfig;
using nosql::WriteAheadLog;
using nosql::decode_double;
using nosql::encode_double;
using nosql::kAllScopes;
using nosql::recover_from_wal;
using nosql::recover_instance;
using nosql::replay_wal;
using nosql::write_checkpoint;
namespace fault = util::fault;
namespace sites = util::fault::sites;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/graphulo_fault_" + name;
}

/// Disarms every site after each test so injection never leaks.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
};

/// A retry policy with enough attempts that a site armed with <= 10
/// scheduled fires can never exhaust it, and negligible backoff so the
/// tests stay fast.
util::RetryPolicy test_retry() {
  util::RetryPolicy p;
  p.max_attempts = 25;
  p.initial_backoff = std::chrono::microseconds(1);
  p.max_backoff = std::chrono::microseconds(10);
  return p;
}

/// The TableMult result-table config (versioning off + summing
/// combiner), as a value the recovery TableConfigProvider can return.
TableConfig sum_config() {
  TableConfig cfg;
  cfg.versioning = false;
  cfg.attach_iterator({10, "plus-combiner", kAllScopes, [](nosql::IterPtr src) {
                         return std::make_unique<CombinerIterator>(
                             std::move(src), nosql::sum_double_reducer());
                       }});
  return cfg;
}

std::vector<Cell> cells_of(Instance& db, const std::string& table) {
  Scanner scan(db, table);
  return scan.read_all();
}

/// Scan folded to (row|family|qualifier) -> decoded value, for
/// comparing combiner tables where timestamps are nondeterministic.
std::map<std::string, double> value_map(Instance& db,
                                        const std::string& table) {
  std::map<std::string, double> out;
  for (const auto& c : cells_of(db, table)) {
    const auto v = decode_double(c.value);
    out[c.key.row + "|" + c.key.family + "|" + c.key.qualifier] =
        v ? *v : -1.0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Injector unit tests
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DisarmedSiteIsTransparent) {
  EXPECT_FALSE(fault::enabled());
  EXPECT_NO_THROW(fault::point("never.armed"));
  EXPECT_EQ(fault::stats("never.armed").hits, 0u);  // fast path: no counting
}

TEST_F(FaultTest, ScheduledTriggerFiresOnExactHits) {
  fault::FaultSpec spec;
  spec.fire_on_hits = {4, 2};  // unsorted on purpose
  fault::arm("unit.sched", spec);
  EXPECT_TRUE(fault::enabled());
  std::vector<int> fired;
  for (int hit = 1; hit <= 5; ++hit) {
    try {
      fault::point("unit.sched");
    } catch (const util::TransientError&) {
      fired.push_back(hit);
    }
  }
  EXPECT_EQ(fired, (std::vector<int>{2, 4}));
  EXPECT_EQ(fault::stats("unit.sched").hits, 5u);
  EXPECT_EQ(fault::stats("unit.sched").fires, 2u);
}

TEST_F(FaultTest, MaxFiresCapsFiring) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 3;
  fault::arm("unit.cap", spec);
  std::uint64_t fires = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      fault::point("unit.cap");
    } catch (const util::TransientError&) {
      ++fires;
    }
  }
  EXPECT_EQ(fires, 3u);
  EXPECT_EQ(fault::stats("unit.cap").hits, 10u);
}

TEST_F(FaultTest, FatalSpecThrowsFatalError) {
  fault::FaultSpec spec;
  spec.fire_on_hits = {1};
  spec.fatal = true;
  fault::arm("unit.fatal", spec);
  EXPECT_THROW(fault::point("unit.fatal"), util::FatalError);
}

TEST_F(FaultTest, ProbabilisticStreamIsDeterministicUnderSeed) {
  auto run = [] {
    fault::seed(424242);
    fault::FaultSpec spec;
    spec.probability = 0.3;
    fault::arm("unit.prob", spec);
    std::vector<int> fired;
    for (int hit = 1; hit <= 200; ++hit) {
      try {
        fault::point("unit.prob");
      } catch (const util::TransientError&) {
        fired.push_back(hit);
      }
    }
    fault::reset();
    return fired;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.size(), 20u);   // ~60 expected at p=0.3
  EXPECT_LT(first.size(), 150u);
}

TEST_F(FaultTest, ResetDisarmsAndClearsCounters) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  fault::arm("unit.reset", spec);
  EXPECT_THROW(fault::point("unit.reset"), util::TransientError);
  fault::reset();
  EXPECT_FALSE(fault::enabled());
  EXPECT_NO_THROW(fault::point("unit.reset"));
  EXPECT_EQ(fault::stats("unit.reset").hits, 0u);
  EXPECT_EQ(fault::total_fires(), 0u);
}

TEST_F(FaultTest, SiteCatalogCoversThePipeline) {
  const auto& all = fault::all_sites();
  EXPECT_GE(all.size(), 13u);
  for (const char* s : {sites::kWalAppend, sites::kWalSync, sites::kWalCommit,
                        sites::kRFileWrite, sites::kRFileRead,
                        sites::kRFileSeek, sites::kMemtableFlush,
                        sites::kTabletCompact, sites::kInstanceApply,
                        sites::kBatchWriterFlush, sites::kTableMultWorker,
                        sites::kCheckpointWrite, sites::kCheckpointLoad}) {
    EXPECT_NE(std::find(all.begin(), all.end(), std::string(s)), all.end())
        << "missing site " << s;
  }
}

// ---------------------------------------------------------------------------
// Retry machinery
// ---------------------------------------------------------------------------

TEST_F(FaultTest, WithRetriesAbsorbsTransientFailures) {
  int calls = 0;
  const int got = util::with_retries("test", test_retry(), [&] {
    if (++calls < 3) throw util::TransientError("flaky");
    return 41 + 1;
  });
  EXPECT_EQ(got, 42);
  EXPECT_EQ(calls, 3);
}

TEST_F(FaultTest, WithRetriesGivesUpAfterMaxAttempts) {
  util::RetryPolicy p = test_retry();
  p.max_attempts = 4;
  int calls = 0;
  EXPECT_THROW(util::with_retries("test", p,
                                  [&]() -> void {
                                    ++calls;
                                    throw util::TransientError("always");
                                  }),
               util::TransientError);
  EXPECT_EQ(calls, 4);
}

TEST_F(FaultTest, WithRetriesDoesNotRetryFatal) {
  int calls = 0;
  EXPECT_THROW(util::with_retries("test", test_retry(),
                                  [&]() -> void {
                                    ++calls;
                                    throw util::FatalError("disk died");
                                  }),
               util::FatalError);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Write-path resilience
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ApplySurvivesInjectedApplyAndWalFaults) {
  const auto path = temp_path("apply_retry.wal");
  std::remove(path.c_str());
  {
    Instance db;
    db.set_retry_policy(test_retry());
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("t");

    fault::FaultSpec spec;
    spec.fire_on_hits = {1};
    fault::arm(sites::kInstanceApply, spec);
    fault::FaultSpec wal_spec;
    wal_spec.fire_on_hits = {2};
    fault::arm(sites::kWalAppend, wal_spec);

    for (int i = 0; i < 2; ++i) {
      Mutation m("row" + std::to_string(i));
      m.put("f", "q", "v" + std::to_string(i));
      db.apply("t", m);
    }
    db.sync_wal();
    EXPECT_GE(fault::stats(sites::kInstanceApply).fires, 1u);
    EXPECT_GE(fault::stats(sites::kWalAppend).fires, 1u);
    fault::reset();
    EXPECT_EQ(cells_of(db, "t").size(), 2u);
  }
  // Retries must not duplicate log records: exactly 1 create + 2
  // mutations despite the injected append failure.
  std::size_t mutations = 0, total = 0;
  replay_wal(path, [&](const nosql::WalRecord& r) {
    ++total;
    if (r.kind == nosql::WalRecord::Kind::kMutation) ++mutations;
  });
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(mutations, 2u);
  std::remove(path.c_str());
}

TEST_F(FaultTest, GroupCommitAbsorbsTransientCommitFaults) {
  const auto path = temp_path("group_transient.wal");
  std::remove(path.c_str());
  fault::FaultSpec spec;
  spec.fire_on_hits = {1, 2, 5};
  fault::arm(sites::kWalCommit, spec);
  nosql::WalOptions opts;
  opts.sync_mode = nosql::WalSyncMode::kGroup;
  {
    WriteAheadLog wal(path, opts);
    for (int i = 0; i < 10; ++i) {
      Mutation m("r" + std::to_string(i));
      m.put("f", "q", "v");
      wal.log_mutation("t", m, static_cast<nosql::Timestamp>(i + 1));
    }
    // The committer retried through the injected failures; every
    // appender's record is durable and nothing was written twice (the
    // commit site fires before any batch byte lands).
    EXPECT_EQ(wal.durable_seq(), 10u);
    EXPECT_GE(fault::stats(sites::kWalCommit).fires, 3u);
  }
  std::size_t replayed = 0;
  std::uint64_t prev = 0;
  replay_wal(path, [&](const nosql::WalRecord& r) {
    EXPECT_EQ(r.seq, prev + 1);  // exactly once each, in order
    prev = r.seq;
    ++replayed;
  });
  EXPECT_EQ(replayed, 10u);
  std::remove(path.c_str());
}

TEST_F(FaultTest, FatalGroupCommitCrashLeavesPrefixConsistentWal) {
  const auto path = temp_path("group_fatal.wal");
  std::remove(path.c_str());
  nosql::WalOptions opts;
  opts.sync_mode = nosql::WalSyncMode::kGroup;
  {
    WriteAheadLog wal(path, opts);
    Mutation m("r");
    m.put("f", "q", "v");
    wal.log_mutation("t", m, 1);
    wal.log_mutation("t", m, 2);
    fault::FaultSpec spec;
    spec.fire_on_hits = {1};
    spec.fatal = true;
    fault::arm(sites::kWalCommit, spec);
    EXPECT_THROW(wal.log_mutation("t", m, 3), util::FatalError);
    // The failure is sticky: once a commit fails permanently the WAL
    // refuses further appends instead of risking a gapped tail.
    EXPECT_THROW(wal.log_mutation("t", m, 4), util::FatalError);
    EXPECT_EQ(wal.durable_seq(), 2u);
  }  // destructor stays quiet and drops the failed suffix
  std::size_t replayed = 0;
  std::uint64_t last = 0;
  replay_wal(path, [&](const nosql::WalRecord& r) {
    last = r.seq;
    ++replayed;
  });
  // Recovery sees exactly the clean prefix from before the crash.
  EXPECT_EQ(replayed, 2u);
  EXPECT_EQ(last, 2u);
  std::remove(path.c_str());
}

TEST_F(FaultTest, RetriesDoNotPerturbTimestamps) {
  auto workload = [](Instance& db) {
    db.set_retry_policy(test_retry());
    db.create_table("t");
    for (int i = 0; i < 6; ++i) {
      Mutation m("r" + std::to_string(i));
      m.put("f", "q", "v");
      db.apply("t", m);
    }
    return cells_of(db, "t");
  };

  Instance faulted;
  fault::FaultSpec spec;
  spec.fire_on_hits = {1, 3, 4};
  fault::arm(sites::kInstanceApply, spec);
  const auto faulted_cells = workload(faulted);
  EXPECT_GE(fault::stats(sites::kInstanceApply).fires, 3u);
  fault::reset();

  Instance reference;
  const auto reference_cells = workload(reference);
  // Byte-identical including timestamps: the clock is advanced once per
  // mutation, before the retry loop.
  EXPECT_EQ(faulted_cells, reference_cells);
}

TEST_F(FaultTest, BatchWriterResumesWithoutDuplicates) {
  Instance db;
  db.set_retry_policy(test_retry());
  db.create_table("c", sum_config());

  BatchWriter bw(db, "c");  // default policy: 5 attempts
  for (int i = 0; i < 8; ++i) {
    Mutation m("r");
    m.put("f", "q", encode_double(1.0));
    bw.add_mutation(std::move(m));
  }
  // Mutations 1-2 succeed (hits 1, 2); mutation 3 burns all 5 attempts
  // (hits 3-7) and the flush gives up with the suffix retained.
  fault::FaultSpec spec;
  spec.fire_on_hits = {3, 4, 5, 6, 7};
  fault::arm(sites::kBatchWriterFlush, spec);
  EXPECT_THROW(bw.flush(), util::TransientError);
  EXPECT_EQ(bw.mutations_written(), 2u);
  EXPECT_EQ(bw.mutations_pending(), 6u);
  ASSERT_TRUE(bw.last_error().has_value());

  // The schedule is exhausted: the next flush resumes at mutation 3.
  bw.close();
  EXPECT_EQ(bw.mutations_written(), 8u);
  EXPECT_EQ(bw.mutations_pending(), 0u);

  // Exactly-once: the sum sees each of the 8 increments exactly once.
  const auto sums = value_map(db, "c");
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums.at("r|f|q"), 8.0);
}

TEST_F(FaultTest, BatchWriterCloseReportsErrorAndDestructorStaysQuiet) {
  Instance db;
  db.create_table("t");
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.fatal = true;  // FatalError is not retried: fails immediately
  fault::arm(sites::kBatchWriterFlush, spec);
  {
    BatchWriter bw(db, "t");
    Mutation m("r");
    m.put("f", "q", "v");
    bw.add_mutation(std::move(m));
    EXPECT_THROW(bw.close(), util::FatalError);
    EXPECT_TRUE(bw.last_error().has_value());
  }  // closed: destructor is a no-op
  {
    BatchWriter bw(db, "t");
    Mutation m("r2");
    m.put("f", "q", "v");
    bw.add_mutation(std::move(m));
    // Destructor path: the final flush fails but only warns — never
    // throws out of a destructor.
  }
  SUCCEED();
}

TEST_F(FaultTest, ThresholdFlushFailureIsContainedNotLost) {
  Instance db;
  db.set_retry_policy(test_retry());
  TableConfig cfg;
  cfg.flush_entries = 4;  // force a threshold flush mid-ingest
  db.create_table("t", std::move(cfg));

  fault::FaultSpec spec;
  spec.fire_on_hits = {1};  // first memtable flush fails
  fault::arm(sites::kMemtableFlush, spec);
  for (int i = 0; i < 6; ++i) {
    Mutation m("r" + std::to_string(i));
    m.put("f", "q", "v");
    EXPECT_NO_THROW(db.apply("t", m));  // contained: the write succeeds
  }
  EXPECT_GE(fault::stats(sites::kMemtableFlush).fires, 1u);
  EXPECT_EQ(cells_of(db, "t").size(), 6u);  // nothing lost
  // An explicit flush later (schedule exhausted) drains the memtable.
  EXPECT_NO_THROW(db.flush("t"));
  EXPECT_EQ(cells_of(db, "t").size(), 6u);
}

// A fatal fault is contained like a transient one: the mutation is in
// the memtable before its threshold flush runs, so an error escaping
// apply() would make the BatchWriter send it a second time.
TEST_F(FaultTest, FatalThresholdFlushAppliesOnce) {
  Instance db;
  TableConfig cfg = core::sum_table_config();
  cfg.flush_entries = 1;  // the one mutation triggers a flush
  db.create_table("c", std::move(cfg));
  fault::FaultSpec spec;
  spec.fire_on_hits = {1};
  spec.fatal = true;
  fault::arm(sites::kMemtableFlush, spec);

  BatchWriter bw(db, "c");
  Mutation m("r");
  m.put("f", "q", encode_double(1.0));
  bw.add_mutation(std::move(m));
  EXPECT_NO_THROW(bw.flush());
  EXPECT_EQ(fault::stats(sites::kMemtableFlush).fires, 1u);
  EXPECT_EQ(bw.mutations_pending(), 0u);
  bw.flush();  // nothing left to resend
  const auto sums = value_map(db, "c");
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums.at("r|f|q"), 1.0);
}

// Flushes and compactions that always fail, on a table without a
// scheduler: every threshold flush and every back-pressure relief
// fails. A failed task is never retried in a loop, so each write still
// returns and keeps its cell; once the faults clear, a flush writes
// every frozen memtable out.
TEST_F(FaultTest, PersistentInlineFlushFaultNeverSpins) {
  Instance db;
  db.set_retry_policy(test_retry());
  TableConfig cfg;
  cfg.flush_entries = 4;
  cfg.max_tablet_files = 2;
  db.create_table("t", std::move(cfg));
  const auto put = [&db](int i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 3));
    m.put("f", "q", "v");
    db.apply("t", m);
  };
  fault::FaultSpec always;
  always.probability = 1.0;
  // Compactions fail first: two flushes reach the file ceiling, so the
  // writes after them find a compaction due that cannot run.
  fault::arm(sites::kTabletCompact, always);
  for (int i = 0; i < 12; ++i) put(i);
  // Then flushes fail too, and frozen memtables pile up past theirs.
  fault::arm(sites::kMemtableFlush, always);
  for (int i = 12; i < 60; ++i) put(i);
  EXPECT_GE(fault::stats(sites::kTabletCompact).fires, 1u);
  EXPECT_GE(fault::stats(sites::kMemtableFlush).fires, 1u);
  EXPECT_EQ(cells_of(db, "t").size(), 60u);

  fault::reset();
  db.flush("t");
  const auto tablet = db.tablets_for_range("t", nosql::Range::all())[0].first;
  EXPECT_EQ(tablet->stats().frozen_memtables, 0u);
  EXPECT_EQ(tablet->stats().memtable_entries, 0u);
  EXPECT_EQ(cells_of(db, "t").size(), 60u);
}

// The same persistent flush fault on a table with a scheduler: the
// pool runs every flush and fails it. A back-pressured writer that sees
// a task fail goes ahead over the ceiling, a counted overrun, instead
// of queueing the task again, so every write returns. The writes run on
// their own thread so a writer that spins fails the test instead of
// hanging it.
TEST_F(FaultTest, PersistentPoolFlushFaultNeverSpins) {
  Instance db;
  db.set_retry_policy(test_retry());
  db.attach_compaction_scheduler(
      std::make_shared<nosql::CompactionScheduler>(1));
  TableConfig cfg;
  cfg.flush_entries = 4;
  db.create_table("t", std::move(cfg));
  const auto overruns = [] {
    return obs::MetricsRegistry::global().snapshot().value(
        "tablet.overrun.total");
  };
  const double overruns_before = overruns();
  fault::FaultSpec always;
  always.probability = 1.0;
  fault::arm(sites::kMemtableFlush, always);
  auto writes = std::async(std::launch::async, [&db] {
    for (int i = 0; i < 40; ++i) {
      Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 3));
      m.put("f", "q", "v");
      db.apply("t", m);
    }
  });
  const bool returned = writes.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  const auto flush_fires = fault::stats(sites::kMemtableFlush).fires;
  fault::reset();  // frees a spinning writer, so the join below ends
  writes.get();
  EXPECT_TRUE(returned) << "writes spun on the failing pool flush";
  EXPECT_GE(flush_fires, 1u);
  EXPECT_GE(overruns() - overruns_before, 1.0);  // each go-ahead is counted
  EXPECT_EQ(cells_of(db, "t").size(), 40u);

  db.flush("t");
  const auto tablet = db.tablets_for_range("t", nosql::Range::all())[0].first;
  EXPECT_EQ(tablet->stats().frozen_memtables, 0u);
  EXPECT_EQ(tablet->stats().memtable_entries, 0u);
  EXPECT_EQ(cells_of(db, "t").size(), 40u);
}

// ---------------------------------------------------------------------------
// TableMult partition retry + deadline
// ---------------------------------------------------------------------------

/// A(k,i), B(k,j) over `rows` shared rows with small-integer values, so
/// C sums are exact regardless of fold order.
void fill_mult_inputs(Instance& db, int rows) {
  db.create_table("A");
  db.create_table("B");
  db.add_splits("A", {"r08", "r16", "r24"});
  for (int r = 0; r < rows; ++r) {
    Mutation ma("r" + util::zero_pad(static_cast<std::uint64_t>(r), 2));
    for (int c = 0; c < 4; ++c) {
      ma.put("", "i" + std::to_string(c),
             encode_double(static_cast<double>((r * 7 + c) % 5 + 1)));
    }
    db.apply("A", ma);
    Mutation mb("r" + util::zero_pad(static_cast<std::uint64_t>(r), 2));
    for (int c = 0; c < 3; ++c) {
      mb.put("", "j" + std::to_string(c),
             encode_double(static_cast<double>((r * 3 + c) % 4 + 1)));
    }
    db.apply("B", mb);
  }
}

TEST_F(FaultTest, TableMultRetriesFailedPartitionsExactlyOnce) {
  Instance reference;
  fill_mult_inputs(reference, 32);
  TableMultOptions opt;
  opt.num_workers = 4;
  opt.max_partition_retries = 8;
  table_mult(reference, "A", "B", "C", opt);
  const auto expected = value_map(reference, "C");
  ASSERT_FALSE(expected.empty());

  // Two places an attempt fails. tablemult.worker fires inside the
  // join, before the attempt's accumulator has emitted anything. The
  // batch_writer.flush run is six fires in a row, one more than the
  // writer's five attempts: the single partition's writer applies its
  // first two drained mutations, then gives up on the third. The retry
  // resends the whole stream, and C skips the two it already holds by
  // (writer id, seq).
  struct Case {
    const char* site;
    std::vector<std::uint64_t> fire_on_hits;
    std::size_t workers;
  };
  const Case cases[] = {
      {sites::kTableMultWorker, {3, 20, 35}, 4},
      {sites::kBatchWriterFlush, {3, 4, 5, 6, 7, 8}, 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.site);
    Instance db;
    db.set_retry_policy(test_retry());
    fill_mult_inputs(db, 32);
    db.flush("A");  // exercise the RFile read path in the workers too
    db.flush("B");
    fault::FaultSpec spec;
    spec.fire_on_hits = c.fire_on_hits;
    fault::arm(c.site, spec);
    TableMultOptions run = opt;
    run.num_workers = c.workers;
    const auto stats = table_mult(db, "A", "B", "C", run);
    EXPECT_GE(fault::stats(c.site).fires, 1u);
    EXPECT_GE(stats.retried_partitions, 1u);
    EXPECT_EQ(stats.timed_out_partitions, 0u);
    fault::reset();

    // Despite abandoned attempts and resumed partitions, every partial
    // product landed exactly once: the sums match the unfaulted run.
    EXPECT_EQ(value_map(db, "C"), expected);
  }
}

TEST_F(FaultTest, PartitionDeadlineDegradesToWarningNotStall) {
  Instance db;
  fill_mult_inputs(db, 3);
  TableMultOptions opt;
  opt.num_workers = 1;
  opt.partition_deadline = std::chrono::milliseconds(1);
  opt.multiply = [](double a, double b) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return a * b;
  };
  // Must return (with the partition marked lost), not throw or hang.
  const auto stats = table_mult(db, "A", "B", "C", opt);
  ASSERT_EQ(stats.partitions.size(), 1u);
  EXPECT_TRUE(stats.partitions[0].timed_out);
  EXPECT_EQ(stats.timed_out_partitions, 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint + bounded recovery
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CheckpointBoundsReplayToTheWalTail) {
  const auto wal_path = temp_path("ckpt_bound.wal");
  const auto ckpt_path = temp_path("ckpt_bound.ckpt");
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());

  std::uint64_t covers = 0, end = 0;
  {
    Instance db(2);
    db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
    db.create_table("t");
    for (int i = 0; i < 100; ++i) {
      Mutation m("r" + util::zero_pad(static_cast<std::uint64_t>(i), 3));
      m.put("f", "q", "v" + std::to_string(i));
      db.apply("t", m);
    }
    db.sync_wal();
    const auto ck = write_checkpoint(db, ckpt_path);
    EXPECT_EQ(ck.tables, 1u);
    EXPECT_EQ(ck.cells, 100u);
    covers = ck.covers_seq;
    for (int i = 100; i < 105; ++i) {
      Mutation m("r" + util::zero_pad(static_cast<std::uint64_t>(i), 3));
      m.put("f", "q", "v" + std::to_string(i));
      db.apply("t", m);
    }
    db.sync_wal();
    end = db.wal()->next_seq();
  }  // crash

  Instance rec(2);
  const auto r = recover_instance(rec, ckpt_path, wal_path);
  EXPECT_TRUE(r.checkpoint_loaded);
  EXPECT_EQ(r.tables_restored, 1u);
  EXPECT_EQ(r.cells_restored, 100u);
  // Replay is bounded by the tail, NOT the write history: 5 records,
  // not 101.
  EXPECT_EQ(r.records_replayed, 5u);
  EXPECT_EQ(r.records_replayed, end - covers);
  EXPECT_EQ(cells_of(rec, "t").size(), 105u);

  // The recovered clock is past everything replayed: a new write wins.
  Mutation m("r000");
  m.put("f", "q", "new");
  rec.apply("t", m);
  Scanner scan(rec, "t");
  scan.set_range(nosql::Range::exact_row("r000"));
  const auto cells = scan.read_all();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].value, "new");
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
}

/// Reads a whole file into a string.
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

TEST_F(FaultTest, StaleWalRecordsAreSkippedAfterCrashBeforeTruncation) {
  const auto wal_path = temp_path("ckpt_stale.wal");
  const auto ckpt_path = temp_path("ckpt_stale.ckpt");
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());

  const auto config_for = [](const std::string&) { return sum_config(); };
  std::string pre_rotate_wal;
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
    db.create_table("c", sum_config());
    for (int i = 0; i < 10; ++i) {
      Mutation m("counter");
      m.put("f", "q", encode_double(1.0));
      db.apply("c", m);
    }
    db.sync_wal();
    pre_rotate_wal = slurp(wal_path);
    write_checkpoint(db, ckpt_path);
  }  // crash — and simulate it landing BEFORE the WAL truncation hit
     // disk, by restoring the pre-rotation log content:
  spit(wal_path, pre_rotate_wal);

  Instance rec;
  const auto r = recover_instance(rec, ckpt_path, wal_path, config_for);
  EXPECT_TRUE(r.checkpoint_loaded);
  // Every restored record predates the checkpoint: none replays, so the
  // 10 increments are NOT double-applied.
  EXPECT_EQ(r.records_replayed, 0u);
  const auto sums = value_map(rec, "c");
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums.at("counter|f|q"), 10.0);
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST_F(FaultTest, CorruptCheckpointFallsBackToFullWalReplay) {
  const auto wal_path = temp_path("ckpt_corrupt.wal");
  const auto ckpt_path = temp_path("ckpt_corrupt.ckpt");
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());

  const auto config_for = [](const std::string&) { return sum_config(); };
  std::string full_wal;
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
    db.create_table("c", sum_config());
    for (int i = 0; i < 10; ++i) {
      Mutation m("counter");
      m.put("f", "q", encode_double(1.0));
      db.apply("c", m);
    }
    db.sync_wal();
    full_wal = slurp(wal_path);
    write_checkpoint(db, ckpt_path);
  }
  const auto pristine = slurp(ckpt_path);
  ASSERT_GT(pristine.size(), 40u);
  // Two corruptions: a flipped payload byte (the CRC must catch it),
  // and a flipped top byte of the u64 payload length (byte 11), which
  // must read as corruption, not as a request for exabytes.
  const std::pair<std::size_t, char> damages[] = {
      {pristine.size() / 2, static_cast<char>(0x5a)},
      {11, static_cast<char>(0x10)}};
  for (const auto& [offset, mask] : damages) {
    SCOPED_TRACE("corrupt byte " + std::to_string(offset));
    // Corrupt the checkpoint and restore the full WAL so fallback
    // recovery has everything.
    auto ckpt = pristine;
    ckpt[offset] ^= mask;
    spit(ckpt_path, ckpt);
    spit(wal_path, full_wal);

    Instance rec;
    const auto r = recover_instance(rec, ckpt_path, wal_path, config_for);
    EXPECT_FALSE(r.checkpoint_loaded);
    EXPECT_EQ(r.records_replayed, 11u);  // create + 10 mutations
    const auto sums = value_map(rec, "c");
    ASSERT_EQ(sums.size(), 1u);
    EXPECT_EQ(sums.at("counter|f|q"), 10.0);
  }
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST_F(FaultTest, DamagedCheckpointMetadataNeverLoadsPartially) {
  namespace fs = std::filesystem;
  const fs::path dir = temp_path("ckpt_damage");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string wal_path = (dir / "db.wal").string();
  const std::string ckpt_path = (dir / "db.ckpt").string();

  TableConfig cfg;
  cfg.flush_entries = 8;
  const auto config_for = [&](const std::string&) { return cfg; };
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
    db.create_table("t", cfg);
    db.add_splits("t", {"0100"});
    for (int i = 0; i < 200; ++i) {
      Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
      m.put("f", "q", "v" + std::to_string(i));
      db.apply("t", m);
    }
    db.flush("t");
    write_checkpoint(db, ckpt_path);
  }

  // Every artifact the checkpoint wrote beside the log, except the
  // RFiles themselves (a damaged RFile drops that one file, loudly).
  std::vector<std::string> metadata;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (path == wal_path || entry.path().extension() == ".rf") continue;
    metadata.push_back(path);
  }
  ASSERT_FALSE(metadata.empty());
  for (const auto& path : metadata) {
    SCOPED_TRACE("damaged " + path);
    const std::string pristine = slurp(path);
    ASSERT_FALSE(pristine.empty());
    std::string damaged = pristine;
    damaged[damaged.size() / 2] ^= static_cast<char>(0x5a);
    spit(path, damaged);

    Instance rec;
    const auto r = recover_instance(rec, ckpt_path, wal_path, config_for);
    // Whole or nothing: a damaged checkpoint is rejected, never loaded
    // with part of its file sets.
    if (r.checkpoint_loaded) {
      EXPECT_EQ(cells_of(rec, "t").size(), 200u);
    }
    spit(path, pristine);
  }
  fs::remove_all(dir);
}

TEST_F(FaultTest, CheckpointLoadRetriesTransientFaults) {
  const auto wal_path = temp_path("ckpt_load.wal");
  const auto ckpt_path = temp_path("ckpt_load.ckpt");
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
    db.create_table("t");
    Mutation m("r");
    m.put("f", "q", "v");
    db.apply("t", m);
    db.sync_wal();
    write_checkpoint(db, ckpt_path);
  }
  fault::FaultSpec spec;
  spec.fire_on_hits = {1};
  fault::arm(sites::kCheckpointLoad, spec);
  Instance rec;
  rec.set_retry_policy(test_retry());
  const auto r = recover_instance(rec, ckpt_path, wal_path);
  EXPECT_TRUE(r.checkpoint_loaded);
  EXPECT_GE(fault::stats(sites::kCheckpointLoad).fires, 1u);
  EXPECT_EQ(cells_of(rec, "t").size(), 1u);
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST_F(FaultTest, CheckpointRequiresAnAttachedWal) {
  Instance db;
  db.create_table("t");
  EXPECT_THROW(write_checkpoint(db, temp_path("nowal.ckpt")),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Crash-consistency property test: the whole pipeline under mass
// injection, then crash + bounded recovery, byte-identical scans.
// ---------------------------------------------------------------------------

struct WorkloadMarks {
  std::uint64_t covers_seq = 0;  ///< WAL seq the mid-workload checkpoint covers
  std::uint64_t end_seq = 0;     ///< WAL seq after the workload
};

/// The deterministic ingest -> checkpoint -> ingest -> TableMult
/// workload, identical for the faulted and the reference instance (the
/// checkpoint step runs only when a WAL is attached).
void run_workload(Instance& db, const std::string& ckpt_path,
                  WorkloadMarks* marks) {
  db.set_retry_policy(test_retry());
  db.create_table("A");
  db.create_table("B");
  db.add_splits("A", {"r08", "r16", "r24"});
  db.add_splits("B", {"r12", "r24"});

  const auto ingest = [&db](const std::string& table, int row_lo, int row_hi,
                            int cols) {
    BatchWriter bw(db, table, 4 << 20, test_retry());
    int n = 0;
    for (int r = row_lo; r < row_hi; ++r) {
      Mutation m("r" + util::zero_pad(static_cast<std::uint64_t>(r), 2));
      for (int c = 0; c < cols; ++c) {
        m.put("f", "c" + std::to_string(c),
              encode_double(static_cast<double>((r * 7 + c) % 5 + 1)));
      }
      bw.add_mutation(std::move(m));
      if (++n % 4 == 0) {
        bw.flush();
        db.sync_wal();
      }
    }
    bw.close();
    db.sync_wal();
  };

  ingest("A", 0, 24, 4);
  ingest("B", 0, 24, 3);
  db.flush("A");  // materialize RFiles: rfile.write/seek see traffic
  db.flush("B");
  if (db.wal()) {
    const auto ck = write_checkpoint(db, ckpt_path);
    marks->covers_seq = ck.covers_seq;
  }
  ingest("A", 24, 48, 4);
  ingest("B", 24, 48, 3);

  TableMultOptions opt;
  opt.num_workers = 4;
  opt.max_partition_retries = 12;
  table_mult(db, "A", "B", "C", opt);
  db.sync_wal();
  if (db.wal()) marks->end_seq = db.wal()->next_seq();
}

TEST_F(FaultTest, CrashConsistencyUnderMassFaultInjection) {
  const auto wal_path = temp_path("crash.wal");
  const auto ckpt_path = temp_path("crash.ckpt");
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
  std::remove((ckpt_path + ".tmp").c_str());

  const auto config_for = [](const std::string& name) {
    return name == "C" ? sum_config() : TableConfig{};
  };

  // Arm 100+ deterministic (site, hit-number) triggers across every
  // pipeline site. Hit 2 is always included so every site with real
  // traffic fires at least once; the rest are drawn from a fixed seed.
  fault::seed(0xF417F417u);
  util::SplitMix64 schedule_rng(987654321u);
  std::size_t armed_triggers = 0;
  for (const auto& site : fault::all_sites()) {
    if (site == sites::kCheckpointLoad) continue;  // recovery runs clean
    fault::FaultSpec spec;
    std::set<std::uint64_t> hits{2};
    while (hits.size() < 10) hits.insert(1 + schedule_rng.next() % 120);
    spec.fire_on_hits.assign(hits.begin(), hits.end());
    armed_triggers += spec.fire_on_hits.size();
    fault::arm(site, spec);
  }
  ASSERT_GE(armed_triggers, 100u);

  // -- the faulted run ------------------------------------------------------
  WorkloadMarks marks;
  std::vector<Cell> a_pre, b_pre, c_pre;
  {
    Instance db(2);
    db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
    run_workload(db, ckpt_path, &marks);

    // Acceptance: at least one worker-partition failure and one WAL
    // sync failure actually fired.
    EXPECT_GE(fault::stats(sites::kTableMultWorker).fires, 1u);
    EXPECT_GE(fault::stats(sites::kWalSync).fires, 1u);
    EXPECT_GE(fault::total_fires(), 10u);
    fault::reset();  // scans below must run clean

    a_pre = cells_of(db, "A");
    b_pre = cells_of(db, "B");
    c_pre = cells_of(db, "C");
    EXPECT_EQ(a_pre.size(), 48u * 4u);
    EXPECT_EQ(b_pre.size(), 48u * 3u);
  }  // crash: drop the instance

  // -- recovery -------------------------------------------------------------
  Instance rec(2);
  const auto r = recover_instance(rec, ckpt_path, wal_path, config_for);
  EXPECT_TRUE(r.checkpoint_loaded);
  // Replay is bounded by the post-checkpoint tail (phase-2 ingest +
  // TableMult writes), not the full history.
  ASSERT_GT(marks.end_seq, marks.covers_seq);
  EXPECT_EQ(r.records_replayed, marks.end_seq - marks.covers_seq);
  EXPECT_LT(r.records_replayed, marks.end_seq - 1);  // strictly a tail

  // Byte-identical scans, timestamps included.
  EXPECT_EQ(cells_of(rec, "A"), a_pre);
  EXPECT_EQ(cells_of(rec, "B"), b_pre);
  EXPECT_EQ(cells_of(rec, "C"), c_pre);

  // -- unfaulted reference --------------------------------------------------
  Instance reference(2);
  WorkloadMarks unused;
  run_workload(reference, ckpt_path + ".ref", &unused);
  // A and B are byte-identical to the faulted run (same apply sequence,
  // timestamps assigned once per mutation regardless of retries).
  EXPECT_EQ(cells_of(reference, "A"), a_pre);
  EXPECT_EQ(cells_of(reference, "B"), b_pre);
  // C's timestamps depend on worker interleaving; its folded values do
  // not — and every partial product landed exactly once.
  EXPECT_EQ(value_map(reference, "C"), value_map(rec, "C"));

  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());
}

}  // namespace
}  // namespace graphulo
