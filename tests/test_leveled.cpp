// Leveled compaction: level invariants, the compaction picker,
// delete-marker drop gating, checkpoint recovery of the leveled file
// set, block-cache eviction of retired files, the
// storage-amplification gauges, and the crash-consistency property
// test over the version-install and checkpoint fault sites.

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nosql/nosql.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace graphulo {
namespace {

using nosql::Cell;
using nosql::CompactionConfig;
using nosql::CompactionPick;
using nosql::FileMeta;
using nosql::Instance;
using nosql::Key;
using nosql::Mutation;
using nosql::Range;
using nosql::RFile;
using nosql::Scanner;
using nosql::TableConfig;
using nosql::Version;
using nosql::VersionEdit;
using nosql::VersionSet;
using nosql::WriteAheadLog;
using nosql::pick_compaction;
using nosql::recover_instance;
using nosql::write_checkpoint;
namespace fault = util::fault;
namespace sites = util::fault::sites;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/graphulo_leveled_" + name;
}

/// Disarms every site after each test so injection never leaks.
class LeveledFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
};

/// Generous retries + negligible backoff, as in test_fault.cpp.
util::RetryPolicy test_retry() {
  util::RetryPolicy p;
  p.max_attempts = 25;
  p.initial_backoff = std::chrono::microseconds(1);
  p.max_backoff = std::chrono::microseconds(10);
  return p;
}

/// Metadata-only FileMeta for picker/version tests (no backing RFile —
/// the picker and VersionSet only read the metadata).
FileMeta fm(std::uint64_t id, int level, std::uint64_t seq,
            const std::string& lo, const std::string& hi,
            std::uint64_t bytes = 100) {
  FileMeta m;
  m.file_id = id;
  m.level = level;
  m.seq = seq;
  m.cells = 1;
  m.bytes = bytes;
  m.first_key.row = lo;
  m.last_key.row = hi;
  return m;
}

std::vector<Cell> cells_of(Instance& db, const std::string& table) {
  Scanner scan(db, table);
  return scan.read_all();
}

/// Scan folded to (row|family|qualifier) -> value: the model-map view
/// for workloads with versioning on (latest version wins).
std::map<std::string, std::string> value_map(Instance& db,
                                             const std::string& table) {
  std::map<std::string, std::string> out;
  for (const auto& c : cells_of(db, table)) {
    out.emplace(c.key.row + "|" + c.key.family + "|" + c.key.qualifier,
                c.value);
  }
  return out;
}

/// Raw (pre-delete-resolution) cells of every tablet of `table`.
std::vector<Cell> raw_cells_of(Instance& db, const std::string& table) {
  std::vector<Cell> out;
  for (const auto& [tablet, sid] : db.tablets_for_range(table, Range::all())) {
    auto stack = tablet->raw_stack();
    auto part = nosql::drain(*stack, Range::all());
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

bool raw_has_delete_marker(Instance& db, const std::string& table,
                           const std::string& row) {
  for (const auto& c : raw_cells_of(db, table)) {
    if (c.key.row == row && c.key.deleted) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// VersionSet: level invariants
// ---------------------------------------------------------------------------

TEST(LeveledVersionSet, L0NewestFirstAndSortedLevelsDisjoint) {
  VersionSet vs;
  VersionEdit e;
  e.added = {fm(1, 0, 1, "a", "m"), fm(2, 0, 2, "g", "z")};
  ASSERT_TRUE(vs.apply(e));
  auto v = vs.current();
  ASSERT_EQ(v->levels[0].size(), 2u);
  // Newest (highest seq) first, regardless of insertion order.
  EXPECT_EQ(v->levels[0][0].file_id, 2u);
  EXPECT_EQ(v->levels[0][1].file_id, 1u);

  // Disjoint L1 files sort by first_key.
  VersionEdit e1;
  e1.added = {fm(3, 1, 3, "n", "r"), fm(4, 1, 3, "a", "e")};
  ASSERT_TRUE(vs.apply(e1));
  v = vs.current();
  ASSERT_EQ(v->levels[1].size(), 2u);
  EXPECT_EQ(v->levels[1][0].file_id, 4u);
  EXPECT_EQ(v->levels[1][1].file_id, 3u);

  // An overlapping L1 add breaks the invariant: rejected loudly, no
  // partial install.
  VersionEdit bad;
  bad.added = {fm(5, 1, 4, "d", "p")};
  EXPECT_THROW(vs.apply(bad), std::logic_error);
  EXPECT_EQ(vs.current()->levels[1].size(), 2u);

  // Removing an unknown file id rejects the whole edit with no change
  // (a compaction raced and its inputs are gone).
  VersionEdit stale;
  stale.removed = {99};
  stale.added = {fm(6, 1, 5, "s", "t")};
  EXPECT_FALSE(vs.apply(stale));
  EXPECT_EQ(vs.current()->file_count(), 4u);
}

// ---------------------------------------------------------------------------
// Compaction picker
// ---------------------------------------------------------------------------

TEST(LeveledPicker, L0TriggerTakesAllL0PlusNextLevelOverlap) {
  CompactionConfig cfg;  // trigger 4, max_levels 5
  Version v;
  v.levels = {{fm(4, 0, 4, "a", "f"), fm(3, 0, 3, "c", "k"),
               fm(2, 0, 2, "a", "d"), fm(1, 0, 1, "e", "m")},
              {fm(10, 1, 0, "a", "g"), fm(11, 1, 0, "x", "z")}};
  const auto pick = pick_compaction(v, cfg, false);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->input_level, 0u);
  EXPECT_EQ(pick->output_level, 1u);
  // All 4 L0 files + the overlapping L1 file [a,g]; [x,z] is outside
  // the L0 span [a,m] and survives untouched.
  ASSERT_EQ(pick->inputs.size(), 5u);
  std::set<std::uint64_t> ids;
  for (const auto& m : pick->inputs) ids.insert(m.file_id);
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 3, 4, 10}));
  // Nothing deeper than L1 overlaps: bottommost, deletes may drop.
  EXPECT_TRUE(pick->bottommost);
}

TEST(LeveledPicker, BelowTriggerNoPickAndDeeperOverlapBlocksDrop) {
  CompactionConfig cfg;
  Version small;
  small.levels = {{fm(1, 0, 1, "a", "b"), fm(2, 0, 2, "c", "d"),
                   fm(3, 0, 3, "e", "f")}};
  EXPECT_FALSE(pick_compaction(small, cfg, false).has_value());

  Version deep;
  deep.levels = {{fm(4, 0, 4, "a", "f"), fm(3, 0, 3, "c", "k"),
                  fm(2, 0, 2, "a", "d"), fm(1, 0, 1, "e", "m")},
                 {},
                 {fm(20, 2, 0, "d", "h")}};  // L2 holds part of the span
  const auto pick = pick_compaction(deep, cfg, false);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->output_level, 1u);
  EXPECT_FALSE(pick->bottommost);  // "d".."h" still lives at L2
}

TEST(LeveledPicker, OverBudgetLevelPushesVictimSliceDown) {
  CompactionConfig cfg;
  cfg.level_base_bytes = 100;
  cfg.level_multiplier = 4;
  Version v;
  v.levels = {{},
              {fm(1, 1, 1, "a", "f", 90), fm(2, 1, 1, "g", "p", 80)},
              {fm(10, 2, 0, "h", "k", 50), fm(11, 2, 0, "q", "z", 50)}};
  // L1 holds 170 bytes > 100: pick the largest L1 file (id 1, 90B)
  // plus its L2 overlap (none for [a,f]) and push it to L2.
  const auto pick = pick_compaction(v, cfg, false);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->input_level, 1u);
  EXPECT_EQ(pick->output_level, 2u);
  ASSERT_EQ(pick->inputs.size(), 1u);
  EXPECT_EQ(pick->inputs[0].file_id, 1u);
  EXPECT_TRUE(pick->bottommost);  // nothing deeper than L2
}

// ---------------------------------------------------------------------------
// Leveled store: bounded read amplification under sustained ingest
// ---------------------------------------------------------------------------

TEST(LeveledStore, SustainedIngestKeepsPerLevelInvariantsAndBoundsReadAmp) {
  TableConfig cfg;
  cfg.flush_entries = 8;  // every 8 writes is one flush: 64+ flushes below
  cfg.compaction.level0_trigger = 4;
  cfg.compaction.max_levels = 4;
  cfg.compaction.level_base_bytes = 4096;  // force push-downs past L1
  cfg.compaction.level_multiplier = 4;
  Instance db(1);
  db.create_table("t", cfg);
  const int kCells = 8 * 70;  // 70 threshold flushes
  for (int i = 0; i < kCells; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i * 37 % kCells), 4));
    m.put("f", "q", "value-" + std::to_string(i) + std::string(64, 'x'));
    db.apply("t", m);
  }
  db.flush("t");

  const auto tablet = db.tablets_for_range("t", Range::all())[0].first;
  const auto v = tablet->version();
  ASSERT_FALSE(v->levels.empty());
  // Level invariants: L0 newest-first by seq; L1+ sorted and disjoint.
  for (std::size_t i = 1; i < v->levels[0].size(); ++i) {
    EXPECT_GT(v->levels[0][i - 1].seq, v->levels[0][i].seq);
  }
  for (std::size_t l = 1; l < v->levels.size(); ++l) {
    const auto& files = v->levels[l];
    for (std::size_t i = 1; i < files.size(); ++i) {
      EXPECT_TRUE(files[i - 1].last_key < files[i].first_key)
          << "overlap inside L" << l;
    }
  }
  // Read amplification is bounded by the SHAPE, not the flush count: a
  // point read consults every L0 file but at most one file per sorted
  // level. 70 unmerged flushes would mean up to max_tablet_files
  // consulted; leveling keeps it at trigger + levels.
  const std::size_t sorted_levels = v->levels.size() - 1;
  const std::size_t worst_point_read = v->levels[0].size() + sorted_levels;
  EXPECT_LE(v->levels[0].size(), cfg.compaction.level0_trigger);
  EXPECT_LE(worst_point_read,
            cfg.compaction.level0_trigger + cfg.compaction.max_levels);
  // Compactions actually merged: far fewer live files than flushes.
  EXPECT_LT(v->file_count(), 20u);
  EXPECT_GT(sorted_levels, 0u);

  // And the data is intact: every key present with its newest value.
  const auto all = cells_of(db, "t");
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kCells));
}

// ---------------------------------------------------------------------------
// Delete-marker drop gating
// ---------------------------------------------------------------------------

TEST(LeveledStore, DeleteMarkersSurvivePartialCompactionWhenKeyIsDeeper) {
  TableConfig cfg;
  cfg.flush_entries = 1;  // every write flushes, then runs the picker
  cfg.compaction.level0_trigger = 6;  // the sixth flush trips L0 -> L1
  Instance db(1);
  db.create_table("t", cfg);
  const auto tablet = db.tablets_for_range("t", Range::all())[0].first;

  // Seed L2 with the old value of "k" directly (the recovery-path
  // installer), so a later partial compaction's output is NOT
  // bottommost for that key.
  Cell old_cell;
  old_cell.key.row = "k";
  old_cell.key.family = "f";
  old_cell.key.qualifier = "q";
  old_cell.key.ts = 1;
  old_cell.value = "old";
  auto deep = RFile::from_sorted({old_cell}, cfg.rfile);
  tablet->restore_files({FileMeta::describe(deep, /*level=*/2, /*seq=*/1)});
  db.advance_clock(1);

  // Delete "k", then pile up five L0 files, one flush per write.
  Mutation del("k");
  del.put_delete("f", "q");
  db.apply("t", del);
  for (int f = 0; f < 4; ++f) {
    Mutation m("fill-" + std::to_string(f));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  // The sixth flush trips the L0 trigger; the picker runs to completion
  // inline.
  Mutation trigger("fill-z");
  trigger.put("f", "q", "v");
  db.apply("t", trigger);

  const auto v = tablet->version();
  ASSERT_GE(v->levels.size(), 3u);
  EXPECT_TRUE(v->levels[0].size() <= 1);  // L0 was compacted away
  // The output landed at L1 while "k"'s old value lives at L2: the
  // marker MUST survive, and the scan must keep suppressing "old".
  EXPECT_TRUE(raw_has_delete_marker(db, "t", "k"));
  for (const auto& c : cells_of(db, "t")) EXPECT_NE(c.key.row, "k");

  // A full major compaction IS bottommost: marker and old value drop.
  db.compact("t");
  EXPECT_FALSE(raw_has_delete_marker(db, "t", "k"));
  for (const auto& c : raw_cells_of(db, "t")) EXPECT_NE(c.key.row, "k");
  EXPECT_EQ(cells_of(db, "t").size(), 5u);  // the five fill rows
}

TEST(LeveledStore, DeleteMarkersDropAtBottommostPartialCompaction) {
  TableConfig cfg;
  cfg.flush_entries = 2;  // every 2 writes flushes, picker runs inline
  cfg.compaction.level0_trigger = 4;
  Instance db(1);
  db.create_table("t", cfg);
  // Put + delete "k" in the FIRST flush, then enough filler flushes to
  // trigger L0 -> L1. Nothing deeper exists, so the L0 compaction is
  // bottommost and resolves the delete entirely.
  Mutation put("k");
  put.put("f", "q", "doomed");
  db.apply("t", put);
  Mutation del("k");
  del.put_delete("f", "q");
  db.apply("t", del);  // flush #1 (2 entries)
  for (int i = 0; i < 8; ++i) {
    Mutation m("fill-" + std::to_string(i));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  const auto tablet = db.tablets_for_range("t", Range::all())[0].first;
  const auto v = tablet->version();
  ASSERT_GE(v->levels.size(), 2u);  // the trigger fired at least once
  EXPECT_FALSE(raw_has_delete_marker(db, "t", "k"));
  for (const auto& c : raw_cells_of(db, "t")) EXPECT_NE(c.key.row, "k");
}

// ---------------------------------------------------------------------------
// Satellite: compaction evicts retired files' blocks from the cache
// ---------------------------------------------------------------------------

TEST(LeveledStore, CompactionEvictsRetiredFilesFromBlockCache) {
  TableConfig cfg;
  cfg.flush_entries = 1000000;
  cfg.rfile.index_stride = 16;
  cfg.rfile.cache_bytes = 1 << 20;
  Instance db(1);
  db.create_table("t", cfg);
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 100; ++i) {
      Mutation m(util::zero_pad(static_cast<std::uint64_t>(f * 100 + i), 4));
      m.put("f", "q", "value-" + std::to_string(i));
      db.apply("t", m);
    }
    db.flush("t");
  }
  {
    Scanner scan(db, "t");
    EXPECT_EQ(scan.read_all().size(), 300u);
  }
  const auto tablet = db.tablets_for_range("t", Range::all())[0].first;
  const auto before = tablet->stats();
  EXPECT_GT(before.cache_entries, 0u);  // the scan populated the cache

  // The compaction retires all three inputs; their blocks must leave
  // the cache immediately (not linger until LRU pressure), and the
  // fresh output has not been scanned yet.
  db.compact("t");
  const auto after = tablet->stats();
  EXPECT_EQ(after.cache_entries, 0u);
  EXPECT_EQ(after.cache_bytes, 0u);

  // Scans still work (and repopulate from the new file).
  Scanner scan(db, "t");
  EXPECT_EQ(scan.read_all().size(), 300u);
  EXPECT_GT(tablet->stats().cache_entries, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: storage-amplification gauges
// ---------------------------------------------------------------------------

TEST(LeveledObs, StorageGaugesReportLevelShape) {
  TableConfig cfg;
  cfg.flush_entries = 8;
  cfg.compaction.level0_trigger = 4;
  cfg.compaction.level_base_bytes = 4096;
  Instance db(1);
  db.create_table("t", cfg);
  for (int i = 0; i < 200; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "value-" + std::to_string(i) + std::string(32, 'y'));
    db.apply("t", m);
  }
  const auto report = db.metrics_report();  // refreshes the gauges
  EXPECT_NE(report.find("tablet.level.files"), std::string::npos);
  EXPECT_NE(report.find("tablet.bytes.live_ratio_pct"), std::string::npos);

  // The gauges mirror the tablet's actual level shape.
  const auto stats = db.tablets_for_range("t", Range::all())[0].first->stats();
  auto& reg = obs::MetricsRegistry::global();
  for (std::size_t l = 0; l < stats.level_files.size(); ++l) {
    const obs::Labels labels = {{"level", std::to_string(l)}};
    EXPECT_EQ(reg.gauge("tablet.level.files",
                        "Files per LSM level across all tablets", labels)
                  .value(),
              static_cast<std::int64_t>(stats.level_files[l]))
        << "level " << l;
  }
  const auto ratio =
      reg.gauge("tablet.bytes.live_ratio_pct",
                "Deepest-level bytes as a percentage of total file bytes "
                "(space-amplification inverse)")
          .value();
  EXPECT_GE(ratio, 0);
  EXPECT_LE(ratio, 100);
}

// ---------------------------------------------------------------------------
// Checkpoint: leveled recovery
// ---------------------------------------------------------------------------

TEST_F(LeveledFaultTest, CheckpointRecoveryReproducesLeveledStateByteIdentical) {
  const std::string ck = temp_path("ck_leveled");
  const std::string wal_path = temp_path("ck_leveled.wal");
  std::remove(ck.c_str());
  std::remove(wal_path.c_str());
  std::filesystem::remove_all(ck + ".files-1");

  TableConfig cfg;
  cfg.flush_entries = 8;
  cfg.compaction.level0_trigger = 4;
  cfg.compaction.level_base_bytes = 4096;
  const auto provider = [&](const std::string&) { return cfg; };

  Instance db(2);
  db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
  db.create_table("t", cfg);
  db.add_splits("t", {"0100"});
  for (int i = 0; i < 200; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "value-" + std::to_string(i) + std::string(32, 'z'));
    db.apply("t", m);
  }
  // Leave some cells unflushed so the snapshot carries both kinds.
  const auto stats = write_checkpoint(db, ck);
  EXPECT_GT(stats.files, 0u);
  EXPECT_EQ(stats.cells, 200u);  // file-resident + unflushed

  // Post-checkpoint writes live only in the rotated WAL tail.
  for (int i = 200; i < 230; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 4));
    m.put("f", "q", "tail-" + std::to_string(i));
    db.apply("t", m);
  }
  db.sync_wal();
  const auto reference = cells_of(db, "t");

  // Capture the leveled shape the checkpoint must reproduce.
  std::vector<std::vector<std::size_t>> want_shape;
  for (const auto& [tablet, sid] : db.tablets_for_range("t", Range::all())) {
    std::vector<std::size_t> per_level;
    for (const auto& level : tablet->version()->levels) {
      per_level.push_back(level.size());
    }
    want_shape.push_back(std::move(per_level));
  }

  Instance recovered(2);
  const auto rec = recover_instance(recovered, ck, wal_path, provider);
  EXPECT_TRUE(rec.checkpoint_loaded);
  EXPECT_EQ(rec.files_restored, stats.files);
  EXPECT_GT(rec.records_replayed, 0u);  // the 30 tail mutations

  // Byte-identical scans: same cells, same timestamps, same values.
  EXPECT_EQ(cells_of(recovered, "t"), reference);

  // The sorted levels (L1+) come back file-for-file; L0 may differ by
  // the tail-replay flush pattern but the restored files are intact.
  const auto tablets = recovered.tablets_for_range("t", Range::all());
  ASSERT_EQ(tablets.size(), want_shape.size());
  for (std::size_t t = 0; t < tablets.size(); ++t) {
    const auto v = tablets[t].first->version();
    for (std::size_t l = 1; l < want_shape[t].size(); ++l) {
      ASSERT_LT(l, v->levels.size()) << "tablet " << t;
      EXPECT_EQ(v->levels[l].size(), want_shape[t][l])
          << "tablet " << t << " L" << l;
    }
  }
}

TEST_F(LeveledFaultTest, CheckpointRestoresEveryFileMetaField) {
  const std::string ck = temp_path("ck_meta");
  const std::string wal_path = temp_path("ck_meta.wal");
  std::remove(ck.c_str());
  std::remove(wal_path.c_str());

  Instance db(2);
  db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
  db.create_table("t");
  db.add_splits("t", {"n"});
  const auto put = [&](const std::string& row, nosql::Timestamp ts) {
    Mutation m(row);
    m.put("f", "q", "", ts, "value-" + row);
    db.apply("t", m);
  };
  // Per tablet: 32 cells compacted into one L1 file, then 8 flushed
  // into one L0 file whose last key is a delete marker, then 3 cells
  // left unflushed. Every key carries an explicit timestamp.
  for (const char* prefix : {"a", "n"}) {
    for (int i = 0; i < 32; ++i) {
      put(prefix + util::zero_pad(static_cast<std::uint64_t>(i), 3), 100 + i);
    }
  }
  db.compact("t");
  for (const char* prefix : {"a", "n"}) {
    for (int i = 32; i < 39; ++i) {
      put(prefix + util::zero_pad(static_cast<std::uint64_t>(i), 3), 100 + i);
    }
    nosql::ColumnUpdate del;
    del.family = "f";
    del.qualifier = "q";
    del.ts = 7;
    del.has_ts = true;
    del.deleted = true;
    Mutation m(prefix + std::string("039"));
    m.add_update(del);
    db.apply("t", m);
  }
  db.flush("t");
  for (const char* prefix : {"a", "n"}) {
    for (int i = 40; i < 43; ++i) {
      put(prefix + util::zero_pad(static_cast<std::uint64_t>(i), 3), 100 + i);
    }
  }
  const auto stats = write_checkpoint(db, ck);
  EXPECT_EQ(stats.files, 4u);

  Instance recovered(2);
  const auto rec = recover_instance(recovered, ck, wal_path);
  ASSERT_TRUE(rec.checkpoint_loaded);
  EXPECT_EQ(rec.files_restored, 4u);

  const auto live = db.tablets_for_range("t", Range::all());
  const auto back = recovered.tablets_for_range("t", Range::all());
  ASSERT_EQ(live.size(), 2u);
  ASSERT_EQ(back.size(), live.size());
  bool saw_delete_key = false;
  for (std::size_t t = 0; t < live.size(); ++t) {
    const auto want = live[t].first->version();
    ASSERT_EQ(want->levels.size(), 2u) << "tablet " << t;
    ASSERT_EQ(want->levels[0].size(), 1u) << "tablet " << t;
    ASSERT_EQ(want->levels[1].size(), 1u) << "tablet " << t;
    const auto want_files = want->all_files();
    const auto got_files = back[t].first->version()->all_files();
    ASSERT_EQ(got_files.size(), want_files.size()) << "tablet " << t;
    for (std::size_t i = 0; i < want_files.size(); ++i) {
      SCOPED_TRACE("tablet " + std::to_string(t) + " file " +
                   std::to_string(i));
      const FileMeta& w = want_files[i];
      const FileMeta& g = got_files[i];
      EXPECT_EQ(g.level, w.level);
      EXPECT_EQ(g.seq, w.seq);
      EXPECT_EQ(g.cells, w.cells);
      EXPECT_EQ(g.bytes, w.bytes);
      EXPECT_EQ(g.first_key, w.first_key);  // ts and delete flag included
      EXPECT_EQ(g.last_key, w.last_key);
      ASSERT_NE(g.file, nullptr);
      EXPECT_EQ(g.file_id, g.file->file_id());
      saw_delete_key = saw_delete_key || w.last_key.deleted;
    }
  }
  EXPECT_TRUE(saw_delete_key);
  EXPECT_EQ(cells_of(recovered, "t"), cells_of(db, "t"));
}

// ---------------------------------------------------------------------------
// Crash-consistency property test over the install and checkpoint sites
// ---------------------------------------------------------------------------

TEST_F(LeveledFaultTest, WorkloadSurvivesManifestFaultsAndRecoversExactly) {
  const std::string ck = temp_path("ck_fault");
  const std::string wal_path = temp_path("ck_fault.wal");
  std::remove(ck.c_str());
  std::remove(wal_path.c_str());

  TableConfig cfg;
  cfg.flush_entries = 6;
  cfg.compaction.level0_trigger = 3;
  cfg.compaction.level_base_bytes = 2048;
  const auto provider = [&](const std::string&) { return cfg; };

  Instance db(1);
  db.set_retry_policy(test_retry());
  db.attach_wal(std::make_shared<WriteAheadLog>(wal_path));
  db.create_table("t", cfg);

  // Probabilistic faults on the version install (and the checkpoint
  // write) while a mixed put/delete/flush/compact workload runs. The
  // version install firing means compaction outputs get discarded and
  // retried; the workload must never lose an acknowledged write.
  fault::seed(4242);
  fault::FaultSpec spec;
  spec.probability = 0.05;
  fault::arm(sites::kManifestInstall, spec);
  fault::arm(sites::kCheckpointWrite, spec);

  util::Xoshiro256 rng(99);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 600; ++op) {
    const std::string row =
        "r" + util::zero_pad(rng.uniform_int(80), 2);
    if (rng.uniform() < 0.15) {
      Mutation m(row);
      m.put_delete("f", "q");
      db.apply("t", m);
      model.erase(row + "|f|q");
    } else {
      const std::string value = "v" + std::to_string(op);
      Mutation m(row);
      m.put("f", "q", value);
      db.apply("t", m);
      model[row + "|f|q"] = value;
    }
    if (op % 97 == 0) db.flush("t");
    if (op % 211 == 0) db.compact("t");
  }
  EXPECT_EQ(value_map(db, "t"), model);

  // Checkpoint under fire (with_retries absorbs the injected faults),
  // then a little more write traffic for the WAL tail.
  const auto stats = write_checkpoint(db, ck);
  EXPECT_GT(stats.files, 0u);
  for (int op = 0; op < 40; ++op) {
    const std::string row = "r" + util::zero_pad(rng.uniform_int(80), 2);
    Mutation m(row);
    m.put("f", "q", "post-" + std::to_string(op));
    db.apply("t", m);
    model[row + "|f|q"] = "post-" + std::to_string(op);
  }
  db.sync_wal();

  // Crash + recover with faults STILL armed on the load/install path:
  // manifest.install fires during restore_files and must be retried
  // into a consistent file set.
  fault::reset();
  fault::seed(777);
  fault::arm(sites::kManifestInstall, spec);
  fault::arm(sites::kCheckpointLoad, spec);
  Instance recovered(1);
  recovered.set_retry_policy(test_retry());
  const auto rec = recover_instance(recovered, ck, wal_path, provider);
  EXPECT_TRUE(rec.checkpoint_loaded);
  EXPECT_EQ(value_map(recovered, "t"), model);
  EXPECT_EQ(value_map(recovered, "t"), value_map(db, "t"));
}

}  // namespace
}  // namespace graphulo
