// The LSM store end to end: memtable, RFile (incl. disk round trip),
// tablets with compaction, instance routing/splits, scanners, batch
// writer — plus a model-based property test that replays a random
// workload against a reference std::map.

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "nosql/nosql.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace graphulo::nosql {
namespace {

/// Everything a pin of the memtable's current contents reads.
std::vector<Cell> read_memtable(const Memtable& mem) {
  const auto it = mem.pin().iterator();
  return drain(*it, Range::all());
}

TEST(Memtable, AppliesMutationsWithAssignedTimestamps) {
  const auto mem = std::make_shared<Memtable>();
  Mutation m("row1");
  m.put("f", "q1", "v1").put("f", "q2", "v2");
  mem->apply(m, 42);
  EXPECT_EQ(mem->entry_count(), 2u);
  const auto cells = read_memtable(*mem);
  EXPECT_EQ(cells[0].key.ts, 42);
  EXPECT_EQ(cells[0].key.qualifier, "q1");
}

TEST(Memtable, LastWriteWinsOnIdenticalKey) {
  const auto mem = std::make_shared<Memtable>();
  Mutation m1("r");
  m1.put("f", "q", "", 5, "first");
  Mutation m2("r");
  m2.put("f", "q", "", 5, "second");
  mem->apply(m1, 0);
  mem->apply(m2, 0);
  EXPECT_EQ(mem->entry_count(), 1u);
  EXPECT_EQ(read_memtable(*mem)[0].value, "second");
}

TEST(Memtable, PinSeesOnlyItsPrefix) {
  const auto mem = std::make_shared<Memtable>();
  Mutation m1("m");
  m1.put("f", "q", "", 5, "old");
  mem->apply(m1, 0);
  const MemtablePin pin = mem->pin();

  Mutation overwrite("m");  // identical key: shadows "old"
  overwrite.put("f", "q", "", 5, "new");
  mem->apply(overwrite, 0);
  Mutation before("a");  // sorts before the pinned key
  before.put("f", "q", "v");
  mem->apply(before, 7);
  Mutation after("z");  // sorts after it
  after.put("f", "q", "v");
  mem->apply(after, 8);

  const auto it = pin.iterator();
  const auto pinned = drain(*it, Range::all());
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0].key.row, "m");
  EXPECT_EQ(pinned[0].value, "old");
  const auto point = drain(*it, Range::exact_row("m"));
  ASSERT_EQ(point.size(), 1u);
  EXPECT_EQ(point[0].value, "old");

  const auto now = read_memtable(*mem);
  ASSERT_EQ(now.size(), 3u);
  EXPECT_EQ(now[0].key.row, "a");
  EXPECT_EQ(now[1].value, "new");
  EXPECT_EQ(now[2].key.row, "z");
  EXPECT_EQ(mem->entry_count(), 3u);
  EXPECT_EQ(mem->node_count(), 4u);
}

TEST(RFile, DiskRoundTrip) {
  std::vector<Cell> cells;
  for (int i = 0; i < 100; ++i) {
    Cell c;
    c.key.row = util::zero_pad(static_cast<std::uint64_t>(i), 4);
    c.key.family = "f";
    c.key.qualifier = "q";
    c.key.ts = i;
    c.value = "value-" + util::zero_pad(static_cast<std::uint64_t>(i), 3);
    cells.push_back(std::move(c));
  }
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.key < b.key; });
  auto rf = RFile::from_sorted(cells);
  const std::string path = ::testing::TempDir() + "/graphulo_rfile_test.rf";
  ASSERT_TRUE(rf->write_to(path));
  auto loaded = RFile::read_from(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->entry_count(), 100u);
  auto it = loaded->iterator();
  EXPECT_EQ(drain(*it, Range::all()), cells);
  std::remove(path.c_str());
}

TEST(RFile, ReadRejectsBitFlippedFile) {
  // CRC32 integrity: any single flipped bit in the payload must be
  // detected and the file rejected instead of silently loading wrong
  // cells.
  std::vector<Cell> cells;
  for (int i = 0; i < 50; ++i) {
    Cell c;
    c.key.row = util::zero_pad(static_cast<std::uint64_t>(i), 4);
    c.key.family = "f";
    c.key.qualifier = "q";
    c.key.ts = i;
    c.value = "payload-" + util::zero_pad(static_cast<std::uint64_t>(i), 3);
    cells.push_back(std::move(c));
  }
  auto rf = RFile::from_sorted(cells);
  const std::string path = ::testing::TempDir() + "/graphulo_rfile_flip.rf";
  ASSERT_TRUE(rf->write_to(path));
  ASSERT_NE(RFile::read_from(path), nullptr);  // pristine file loads

  // Read the raw bytes once, then try several corruption positions
  // spread across the file (header excluded; its corruption is covered
  // by ReadRejectsGarbage).
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 16u);
  for (const std::size_t at : {bytes.size() / 4, bytes.size() / 2,
                               bytes.size() - 3}) {
    std::string corrupted = bytes;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x10);  // one bit
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupted.data(),
                static_cast<std::streamsize>(corrupted.size()));
    }
    EXPECT_EQ(RFile::read_from(path), nullptr) << "bit flip at " << at;
  }
  std::remove(path.c_str());
}

TEST(RFile, SampleRowsReachesTail) {
  // 1000 single-cell rows, small sample budget: the ceil-rounded stride
  // must spread samples across the file and always include the last
  // row, instead of clustering at the head.
  std::vector<Cell> cells;
  for (int i = 0; i < 1000; ++i) {
    Cell c;
    c.key.row = util::zero_pad(static_cast<std::uint64_t>(i), 4);
    c.key.family = "f";
    c.key.qualifier = "q";
    c.key.ts = 1;
    c.value = "v";
    cells.push_back(std::move(c));
  }
  auto rf = RFile::from_sorted(std::move(cells));
  const auto rows = rf->sample_rows(7);
  ASSERT_FALSE(rows.empty());
  EXPECT_LE(rows.size(), 7u);
  EXPECT_EQ(rows.back(), "0999");             // tail always covered
  EXPECT_GE(rows[rows.size() / 2], "0300");   // not skewed toward low keys
}

TEST(RFile, BloomAndBoundsPruneSeeks) {
  std::vector<Cell> cells;
  for (int i = 0; i < 200; i += 2) {  // even rows only
    Cell c;
    c.key.row = util::zero_pad(static_cast<std::uint64_t>(i), 4);
    c.key.family = "f";
    c.key.qualifier = "q";
    c.key.ts = 1;
    c.value = "v";
    cells.push_back(std::move(c));
  }
  auto rf = RFile::from_sorted(std::move(cells));
  // Bounds: rows outside [first, last] are provably absent.
  EXPECT_FALSE(rf->may_contain_row("0199"));
  EXPECT_FALSE(rf->may_contain_row("9999"));
  EXPECT_TRUE(rf->may_contain_row("0100"));
  EXPECT_FALSE(rf->may_intersect(Range::row_range("0200", "0300")));
  EXPECT_TRUE(rf->may_intersect(Range::exact_row("0100")));
  // A pruned seek exhausts the iterator without scanning.
  auto it = rf->iterator();
  it->seek(Range::exact_row("9999"));
  EXPECT_FALSE(it->has_top());
  // Bloom is probabilistic the other way only: present rows always pass.
  std::size_t in_file_hits = 0;
  for (int i = 0; i < 200; i += 2) {
    in_file_hits +=
        rf->may_contain_row(util::zero_pad(static_cast<std::uint64_t>(i), 4));
  }
  EXPECT_EQ(in_file_hits, 100u);  // no false negatives ever
}

TEST(RFile, ReadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/graphulo_rfile_bad.rf";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an rfile at all";
  }
  EXPECT_EQ(RFile::read_from(path), nullptr);
  EXPECT_EQ(RFile::read_from(path + ".does.not.exist"), nullptr);
  std::remove(path.c_str());
}

TEST(Tablet, FlushMovesDataToFiles) {
  TableConfig cfg;
  cfg.flush_entries = 1000000;  // manual flush only
  Tablet tablet({"", ""}, std::make_shared<const TableConfig>(cfg));
  Mutation m("r1");
  m.put("f", "q", "v");
  tablet.apply(m, 1);
  EXPECT_EQ(tablet.stats().memtable_entries, 1u);
  tablet.flush();
  const auto s = tablet.stats();
  EXPECT_EQ(s.memtable_entries, 0u);
  EXPECT_EQ(s.file_count, 1u);
  EXPECT_EQ(s.file_entries, 1u);
  EXPECT_EQ(s.minor_compactions, 1u);
}

TEST(Tablet, AutoFlushAtThreshold) {
  TableConfig cfg;
  cfg.flush_entries = 10;
  Tablet tablet({"", ""}, std::make_shared<const TableConfig>(cfg));
  for (int i = 0; i < 35; ++i) {
    Mutation m("row" + util::zero_pad(static_cast<std::uint64_t>(i), 3));
    m.put("f", "q", "v");
    tablet.apply(m, i);
  }
  const auto s = tablet.stats();
  EXPECT_GE(s.minor_compactions, 3u);
  EXPECT_EQ(s.memtable_entries + s.file_entries, 35u);
}

TEST(Tablet, MajorCompactionMergesFilesAndDropsDeletes) {
  TableConfig cfg;
  cfg.flush_entries = 1000000;
  Tablet tablet({"", ""}, std::make_shared<const TableConfig>(cfg));
  Mutation put("r");
  put.put("f", "q", "", 1, "old");
  tablet.apply(put, 0);
  tablet.flush();
  Mutation del("r");
  del.put_delete("f", "q");
  tablet.apply(del, 5);
  tablet.flush();
  EXPECT_EQ(tablet.stats().file_count, 2u);
  tablet.major_compact();
  const auto s = tablet.stats();
  // Delete resolved, marker dropped; a merge with no surviving cells
  // installs no file at all rather than a zero-cell one.
  EXPECT_EQ(s.file_count, 0u);
  EXPECT_EQ(s.file_entries, 0u);
  auto stack = tablet.scan_stack();
  EXPECT_TRUE(drain(*stack, Range::all()).empty());
}

TEST(Tablet, ScanAppliesVersioning) {
  TableConfig cfg;
  Tablet tablet({"", ""}, std::make_shared<const TableConfig>(cfg));
  Mutation m1("r");
  m1.put("f", "q", "", 1, "v1");
  Mutation m2("r");
  m2.put("f", "q", "", 2, "v2");
  tablet.apply(m1, 0);
  tablet.flush();
  tablet.apply(m2, 0);
  auto stack = tablet.scan_stack();
  const auto cells = drain(*stack, Range::all());
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].value, "v2");
}

TEST(Tablet, RewritingOneKeyStaysWithinFlushThreshold) {
  TableConfig cfg;
  cfg.flush_entries = 50;
  Tablet tablet({"", ""}, std::make_shared<const TableConfig>(cfg));
  const std::size_t writes = 3 * cfg.flush_entries;
  for (std::size_t i = 0; i < writes; ++i) {
    Mutation m("r");
    m.put("f", "q", "", 1, "v" + std::to_string(i));
    tablet.apply(m, 0);
    ASSERT_LE(tablet.stats().memtable_entries, cfg.flush_entries)
        << "after write " << i;
  }
  EXPECT_GE(tablet.stats().minor_compactions, 3u);
  auto stack = tablet.scan_stack();
  const auto cells = drain(*stack, Range::all());
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].value, "v" + std::to_string(writes - 1));
}

TEST(Tablet, RejectsRowOutsideExtent) {
  TableConfig cfg;
  Tablet tablet({"m", "t"}, std::make_shared<const TableConfig>(cfg));
  Mutation m("a");
  m.put("f", "q", "v");
  EXPECT_THROW(tablet.apply(m, 1), std::logic_error);
}

TEST(Instance, CreateDeleteAndCatalog) {
  Instance db(2);
  db.create_table("t1");
  db.create_table("t2");
  EXPECT_TRUE(db.table_exists("t1"));
  EXPECT_THROW(db.create_table("t1"), std::invalid_argument);
  EXPECT_EQ(db.table_names(), (std::vector<std::string>{"t1", "t2"}));
  db.delete_table("t1");
  EXPECT_FALSE(db.table_exists("t1"));
  EXPECT_THROW(db.delete_table("t1"), std::invalid_argument);
  EXPECT_THROW(db.apply("t1", Mutation("r")), std::invalid_argument);
}

TEST(Instance, WriteAndScanRoundTrip) {
  Instance db;
  db.create_table("t");
  for (int i = 0; i < 50; ++i) {
    Mutation m("row" + util::zero_pad(static_cast<std::uint64_t>(i), 3));
    m.put("f", "q", "value" + std::to_string(i));
    db.apply("t", m);
  }
  Scanner scanner(db, "t");
  const auto cells = scanner.read_all();
  ASSERT_EQ(cells.size(), 50u);
  EXPECT_EQ(cells[0].key.row, "row000");
  EXPECT_EQ(cells[49].key.row, "row049");
  // Range scan.
  Scanner ranged(db, "t");
  ranged.set_range(Range::row_range("row010", "row019"));
  EXPECT_EQ(ranged.read_all().size(), 10u);
}

TEST(Instance, SplitsRepartitionData) {
  Instance db(3);
  db.create_table("t");
  for (int i = 0; i < 90; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 3));
    m.put("f", "q", std::to_string(i));
    db.apply("t", m);
  }
  db.add_splits("t", {"030", "060"});
  EXPECT_EQ(db.list_splits("t"), (std::vector<std::string>{"030", "060"}));
  EXPECT_EQ(db.tablets_for_range("t", Range::all()).size(), 3u);
  // All data still visible, in order.
  Scanner scanner(db, "t");
  const auto cells = scanner.read_all();
  ASSERT_EQ(cells.size(), 90u);
  for (int i = 0; i < 90; ++i) {
    EXPECT_EQ(cells[static_cast<std::size_t>(i)].key.row,
              util::zero_pad(static_cast<std::uint64_t>(i), 3));
  }
  // Writes after the split route correctly.
  Mutation m("045");
  m.put("f", "q2", "new");
  db.apply("t", m);
  Scanner check(db, "t");
  check.set_range(Range::exact_row("045"));
  EXPECT_EQ(check.read_all().size(), 2u);
}

TEST(Instance, TabletsForRangePrunes) {
  Instance db;
  db.create_table("t");
  db.add_splits("t", {"b", "d", "f"});
  EXPECT_EQ(db.tablets_for_range("t", Range::all()).size(), 4u);
  EXPECT_EQ(db.tablets_for_range("t", Range::exact_row("a")).size(), 1u);
  EXPECT_EQ(db.tablets_for_range("t", Range::row_range("c", "e")).size(), 2u);
  EXPECT_EQ(db.tablets_for_range("t", Range::at_least_row("g")).size(), 1u);
}

TEST(Instance, DeleteMarkerHidesCellAcrossFlush) {
  Instance db;
  db.create_table("t");
  Mutation put("r");
  put.put("f", "q", "visible");
  db.apply("t", put);
  db.flush("t");
  Mutation del("r");
  del.put_delete("f", "q");
  db.apply("t", del);
  Scanner scanner(db, "t");
  EXPECT_TRUE(scanner.read_all().empty());
  db.compact("t");
  EXPECT_EQ(db.entry_estimate("t"), 0u);
}

TEST(Instance, ScanScopeIteratorApplied) {
  Instance db;
  TableConfig cfg;
  cfg.attach_iterator(
      {30, "grep-bob", kScanScope,
       [](IterPtr src) { return make_grep_iterator(std::move(src), "bob"); }});
  db.create_table("t", std::move(cfg));
  Mutation m1("alice");
  m1.put("f", "q", "1");
  Mutation m2("bob");
  m2.put("f", "q", "1");
  db.apply("t", m1);
  db.apply("t", m2);
  Scanner scanner(db, "t");
  const auto cells = scanner.read_all();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].key.row, "bob");
}

TEST(Instance, CombinerAtAllScopesSumsPartials) {
  // The Graphulo write pattern: many partial-product puts to the same
  // cell, summed by a combiner at scan + compaction scope.
  Instance db;
  TableConfig cfg;
  cfg.versioning = false;  // the combiner must see every version
  cfg.flush_entries = 8;   // force flushes mid-stream
  cfg.attach_iterator({10, "sum", kAllScopes, [](IterPtr src) {
                         return std::make_unique<CombinerIterator>(
                             std::move(src), sum_double_reducer());
                       }});
  db.create_table("t", std::move(cfg));
  double expected = 0.0;
  for (int i = 1; i <= 40; ++i) {
    Mutation m("c");
    m.put("f", "q", encode_double(i));
    db.apply("t", m);
    expected += i;
  }
  Scanner scanner(db, "t");
  const auto cells = scanner.read_all();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(decode_double(cells[0].value), expected);
  // After a full compaction the table physically holds one combined cell.
  db.compact("t");
  EXPECT_EQ(db.entry_estimate("t"), 1u);
}

TEST(BatchScanner, MultipleRangesAcrossSplits) {
  Instance db(4);
  db.create_table("t");
  db.add_splits("t", {"25", "50", "75"});
  for (int i = 0; i < 100; ++i) {
    Mutation m(util::zero_pad(static_cast<std::uint64_t>(i), 2));
    m.put("f", "q", std::to_string(i));
    db.apply("t", m);
  }
  BatchScanner bs(db, "t");
  bs.set_ranges({Range::row_range("10", "19"), Range::row_range("60", "69")});
  const auto cells = bs.read_all();
  EXPECT_EQ(cells.size(), 20u);
  std::set<std::string> rows;
  for (const auto& c : cells) rows.insert(c.key.row);
  EXPECT_TRUE(rows.count("15"));
  EXPECT_TRUE(rows.count("65"));
  EXPECT_FALSE(rows.count("30"));
}

TEST(BatchWriter, BuffersAndFlushes) {
  Instance db;
  db.create_table("t");
  {
    BatchWriter writer(db, "t", 1 << 20);
    for (int i = 0; i < 100; ++i) {
      std::string row = "r";
      row += util::zero_pad(static_cast<std::uint64_t>(i), 3);
      Mutation m(std::move(row));
      m.put("f", "q", "v");
      writer.add_mutation(std::move(m));
    }
    EXPECT_EQ(writer.mutations_written(), 0u);  // still buffered
    writer.flush();
    EXPECT_EQ(writer.mutations_written(), 100u);
  }
  Scanner scanner(db, "t");
  EXPECT_EQ(scanner.read_all().size(), 100u);
}

TEST(BatchWriter, AutoFlushOnBufferSizeAndDestructor) {
  Instance db;
  db.create_table("t");
  {
    BatchWriter writer(db, "t", 256);  // tiny buffer: frequent autoflush
    for (int i = 0; i < 50; ++i) {
      std::string row = "r";
      row += util::zero_pad(static_cast<std::uint64_t>(i), 3);
      Mutation m(std::move(row));
      m.put("f", "q", "some-value-payload");
      writer.add_mutation(std::move(m));
    }
    EXPECT_GT(writer.mutations_written(), 0u);  // autoflush happened
  }  // destructor flushes the rest
  Scanner scanner(db, "t");
  EXPECT_EQ(scanner.read_all().size(), 50u);
}

TEST(Instance, ServerStatsTrackTraffic) {
  Instance db(2);
  db.create_table("t");
  for (int i = 0; i < 10; ++i) {
    Mutation m("r" + std::to_string(i));
    m.put("f", "q", "v");
    db.apply("t", m);
  }
  Scanner scanner(db, "t");
  scanner.read_all();
  std::size_t written = 0, scans = 0;
  for (int s = 0; s < db.tablet_server_count(); ++s) {
    written += db.server(s).stats().entries_written;
    scans += db.server(s).stats().scans_started;
  }
  EXPECT_EQ(written, 10u);
  EXPECT_GE(scans, 1u);
}

// ---------------------------------------------------------------------------
// Model-based property test: random puts/deletes/flushes/compactions/
// splits replayed against a std::map reference. After every batch, a full
// scan of the store must equal the reference's visible state.
// ---------------------------------------------------------------------------

struct CellId {
  std::string row, fam, qual;
  auto operator<=>(const CellId&) const = default;
};

TEST(StoreModel, RandomWorkloadMatchesReferenceMap) {
  util::Xoshiro256 rng(2024);
  Instance db(3);
  TableConfig cfg;
  cfg.flush_entries = 16;              // force frequent minor compactions
  cfg.compaction.level0_trigger = 2;   // and frequent major compactions
  db.create_table("t", std::move(cfg));
  const auto majors = [] {
    return obs::MetricsRegistry::global().snapshot().value(
        "tablet.compaction.total");
  };
  const double majors_before = majors();
  // Upper bound on the majors explicit compact() calls account for: at
  // most one per tablet per call.
  std::size_t explicit_majors = 0;

  std::map<CellId, std::string> model;
  const int kRows = 12, kQuals = 4;
  auto random_cell = [&]() -> CellId {
    std::string row = "row";
    row += util::zero_pad(rng.uniform_int(kRows), 2);
    std::string qual = "q";
    qual += std::to_string(rng.uniform_int(kQuals));
    return {std::move(row), "f", std::move(qual)};
  };

  for (int step = 0; step < 60; ++step) {
    // A batch of random operations.
    for (int op = 0; op < 20; ++op) {
      const auto id = random_cell();
      const double dice = rng.uniform();
      if (dice < 0.75) {
        std::string value = "v";
        value += std::to_string(rng.next() % 1000);
        Mutation m(id.row);
        m.put(id.fam, id.qual, value);
        db.apply("t", m);
        model[id] = value;
      } else {
        Mutation m(id.row);
        m.put_delete(id.fam, id.qual);
        db.apply("t", m);
        model.erase(id);
      }
    }
    // Occasional structural operations.
    const double dice = rng.uniform();
    if (dice < 0.2) {
      db.flush("t");
    } else if (dice < 0.3) {
      explicit_majors += db.list_splits("t").size() + 1;
      db.compact("t");
    } else if (dice < 0.4 && db.list_splits("t").size() < 4) {
      db.add_splits("t", {"row" + util::zero_pad(rng.uniform_int(kRows), 2)});
    }

    // Full-scan equivalence check.
    Scanner scanner(db, "t");
    const auto cells = scanner.read_all();
    ASSERT_EQ(cells.size(), model.size()) << "step " << step;
    std::size_t i = 0;
    for (const auto& [id, value] : model) {
      EXPECT_EQ(cells[i].key.row, id.row) << "step " << step;
      EXPECT_EQ(cells[i].key.qualifier, id.qual) << "step " << step;
      EXPECT_EQ(cells[i].value, value) << "step " << step;
      ++i;
    }
  }
  // The L0 trigger ran majors on its own, beyond the explicit ones.
  EXPECT_GT(majors() - majors_before, static_cast<double>(explicit_majors));
}

}  // namespace
}  // namespace graphulo::nosql
