// Write-ahead log + crash recovery, including failure injection
// (torn/corrupt log tails), and table cloning.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>

#include <gtest/gtest.h>

#include "nosql/nosql.hpp"
#include "util/strings.hpp"

namespace graphulo::nosql {
namespace {

std::string temp_wal_path(const char* name) {
  return ::testing::TempDir() + "/graphulo_" + name + ".wal";
}

TEST(Wal, RoundTripRecoversTablesAndData) {
  const auto path = temp_wal_path("roundtrip");
  std::remove(path.c_str());
  {
    Instance db(2);
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("users");
    db.create_table("scratch");
    for (int i = 0; i < 50; ++i) {
      Mutation m("user" + util::zero_pad(static_cast<std::uint64_t>(i), 3));
      m.put("f", "name", "value" + std::to_string(i));
      db.apply("users", m);
    }
    Mutation del("user007");
    del.put_delete("f", "name");
    db.apply("users", del);
    db.delete_table("scratch");
    db.sync_wal();
  }  // instance destroyed: the "crash"

  Instance recovered(2);
  const auto replayed = recover_from_wal(recovered, path);
  EXPECT_EQ(replayed, 54u);  // 2 creates + 50 puts + 1 delete + 1 drop
  EXPECT_TRUE(recovered.table_exists("users"));
  EXPECT_FALSE(recovered.table_exists("scratch"));
  Scanner scan(recovered, "users");
  const auto cells = scan.read_all();
  EXPECT_EQ(cells.size(), 49u);  // user007 deleted
  EXPECT_EQ(cells[0].key.row, "user000");
  EXPECT_EQ(cells[0].value, "value0");
  bool found_deleted = false;
  for (const auto& c : cells) {
    if (c.key.row == "user007") found_deleted = true;
  }
  EXPECT_FALSE(found_deleted);
  std::remove(path.c_str());
}

TEST(Wal, RecoveredInstanceAcceptsNewerWrites) {
  const auto path = temp_wal_path("clock");
  std::remove(path.c_str());
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("t");
    Mutation m("r");
    m.put("f", "q", "old");
    db.apply("t", m);
    db.sync_wal();
  }
  Instance recovered;
  recover_from_wal(recovered, path);
  // The recovered clock must be past the replayed timestamps so a new
  // write supersedes the old version.
  Mutation m("r");
  m.put("f", "q", "new");
  recovered.apply("t", m);
  Scanner scan(recovered, "t");
  const auto cells = scan.read_all();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].value, "new");
  std::remove(path.c_str());
}

TEST(Wal, TornTailIsIgnored) {
  const auto path = temp_wal_path("torn");
  std::remove(path.c_str());
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("t");
    for (int i = 0; i < 10; ++i) {
      Mutation m("row" + std::to_string(i));
      m.put("f", "q", "v");
      db.apply("t", m);
    }
    db.sync_wal();
  }
  // Failure injection: truncate the file mid-record.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.close();
  std::string content(size, '\0');
  {
    std::ifstream full(path, std::ios::binary);
    full.read(content.data(), static_cast<std::streamsize>(size));
  }
  content.resize(size - 7);  // cut into the last record
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }

  Instance recovered;
  const auto replayed = recover_from_wal(recovered, path);
  EXPECT_EQ(replayed, 10u);  // create + 9 intact mutations; torn 10th dropped
  Scanner scan(recovered, "t");
  EXPECT_EQ(scan.read_all().size(), 9u);
  std::remove(path.c_str());
}

TEST(Wal, GarbageFileReplaysNothing) {
  const auto path = temp_wal_path("garbage");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not a wal";
  }
  Instance recovered;
  EXPECT_EQ(recover_from_wal(recovered, path), 0u);
  EXPECT_TRUE(recovered.table_names().empty());
  std::remove(path.c_str());
}

TEST(Wal, MissingFileReplaysNothing) {
  Instance recovered;
  EXPECT_EQ(recover_from_wal(recovered, "/does/not/exist.wal"), 0u);
}

TEST(Wal, MutationWithExplicitFieldsSurvives) {
  const auto path = temp_wal_path("fields");
  std::remove(path.c_str());
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("t");
    Mutation m("r");
    m.put("fam", "qual", "vis&label", 12345, "payload");
    db.apply("t", m);
    db.sync_wal();
  }
  Instance recovered;
  recover_from_wal(recovered, path);
  Scanner scan(recovered, "t");
  scan.set_authorizations({"vis", "label"});
  const auto cells = scan.read_all();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].key.family, "fam");
  EXPECT_EQ(cells[0].key.visibility, "vis&label");
  EXPECT_EQ(cells[0].key.ts, 12345);
  EXPECT_EQ(cells[0].value, "payload");
  std::remove(path.c_str());
}

// A replayed mutation equals the logged one field by field: a delete
// carrying a visibility and an explicit timestamp leaves the cell of
// another visibility standing, and a put's visibility survives, so a
// scan without that label still cannot see it.
TEST(Wal, ReplayKeepsEveryUpdateField) {
  const auto path = temp_wal_path("update_fields");
  std::remove(path.c_str());
  Instance live;
  live.attach_wal(std::make_shared<WriteAheadLog>(path));
  live.create_table("t");
  Mutation put("r");
  put.put("f", "q", "", 1, "v");
  live.apply("t", put);
  ColumnUpdate del;
  del.family = "f";
  del.qualifier = "q";
  del.visibility = "A";
  del.ts = 5;
  del.has_ts = true;
  del.deleted = true;
  ColumnUpdate secret;
  secret.family = "f";
  secret.qualifier = "secret";
  secret.visibility = "B";
  secret.value = "s";
  Mutation m("r");
  m.add_update(std::move(del)).add_update(std::move(secret));
  live.apply("t", m);
  live.sync_wal();

  Instance recovered;
  recover_from_wal(recovered, path);
  const auto scan = [](Instance& db, const std::set<std::string>& auths) {
    Scanner scanner(db, "t");
    scanner.set_authorizations(auths);
    std::vector<std::string> shown;
    for (const auto& c : scanner.read_all()) {
      shown.push_back(c.key.to_string() + " = " + c.value);
    }
    return shown;
  };
  for (const std::set<std::string>& auths :
       {std::set<std::string>{}, std::set<std::string>{"A", "B"}}) {
    EXPECT_EQ(scan(recovered, auths), scan(live, auths))
        << auths.size() << " authorizations";
  }
  std::remove(path.c_str());
}

TEST(Wal, CloneTableIsJournaledAndSurvivesRecovery) {
  const auto path = temp_wal_path("clone_journal");
  std::remove(path.c_str());
  {
    Instance db(2);
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("src");
    db.add_splits("src", {"m"});
    for (const char* row : {"a", "n", "z"}) {
      Mutation m(row);
      m.put("f", "q", std::string("v-") + row);
      db.apply("src", m);
    }
    db.clone_table("src", "copy");
    // Post-clone divergence must replay on the right table.
    Mutation m("extra");
    m.put("f", "q", "only-in-copy");
    db.apply("copy", m);
    db.sync_wal();
  }  // crash

  Instance recovered(2);
  recover_from_wal(recovered, path);
  ASSERT_TRUE(recovered.table_exists("src"));
  ASSERT_TRUE(recovered.table_exists("copy"));
  EXPECT_EQ(recovered.list_splits("copy"), recovered.list_splits("src"));
  Scanner scan_src(recovered, "src");
  EXPECT_EQ(scan_src.read_all().size(), 3u);
  Scanner scan_copy(recovered, "copy");
  EXPECT_EQ(scan_copy.read_all().size(), 4u);
  std::remove(path.c_str());
}

TEST(Wal, AddSplitsIsJournaledAndSurvivesRecovery) {
  const auto path = temp_wal_path("splits_journal");
  std::remove(path.c_str());
  {
    Instance db(2);
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("t");
    Mutation pre("before");
    pre.put("f", "q", "v");
    db.apply("t", pre);
    db.add_splits("t", {"g", "p"});
    Mutation post("zzz");
    post.put("f", "q", "v");
    db.apply("t", post);
    db.sync_wal();
  }  // crash

  Instance recovered(2);
  recover_from_wal(recovered, path);
  // The recovered table keeps its tablet layout, not just its data.
  EXPECT_EQ(recovered.list_splits("t"),
            (std::vector<std::string>{"g", "p"}));
  Scanner scan(recovered, "t");
  EXPECT_EQ(scan.read_all().size(), 2u);
  std::remove(path.c_str());
}

TEST(Wal, TornTailAtEveryByteOffsetDeliversTheIntactPrefix) {
  const auto path = temp_wal_path("torn_sweep");
  std::remove(path.c_str());
  // A log exercising every record kind: create, splits, mutations
  // (simple + explicit-fields), clone, create+delete, mutation on the
  // clone.
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("t1");                    // 1 kCreateTable
    db.add_splits("t1", {"m"});               // 2 kAddSplits
    Mutation a("alpha");
    a.put("f", "q", "v1");
    db.apply("t1", a);                        // 3 kMutation
    Mutation b("beta");
    b.put("fam", "qual", "vis", 777, "v2");
    db.apply("t1", b);                        // 4 kMutation
    db.clone_table("t1", "t2");               // 5 kCloneTable
    db.create_table("tmp");                   // 6 kCreateTable
    db.delete_table("tmp");                   // 7 kDeleteTable
    Mutation c("gamma");
    c.put("f", "q", "v3");
    db.apply("t2", c);                        // 8 kMutation
    db.sync_wal();
  }

  // Parse the record boundaries: each record is magic(u32) | len(u32) |
  // body(len).
  std::ifstream in(path, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<std::size_t> record_ends;
  std::size_t off = 0;
  while (off + 8 <= full.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, full.data() + off + 4, sizeof(len));
    off += 8 + len;
    record_ends.push_back(off);
  }
  ASSERT_EQ(record_ends.size(), 8u);
  ASSERT_EQ(record_ends.back(), full.size());

  // Truncate at EVERY byte offset: replay must deliver exactly the
  // records that end at or before the cut, for all record kinds.
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    const std::size_t expected = static_cast<std::size_t>(
        std::count_if(record_ends.begin(), record_ends.end(),
                      [cut](std::size_t end) { return end <= cut; }));
    std::size_t delivered = 0;
    std::uint64_t last_seq = 0;
    replay_wal(path, [&](const WalRecord& r) {
      ++delivered;
      EXPECT_GT(r.seq, last_seq) << "seqs must be strictly increasing";
      last_seq = r.seq;
    });
    ASSERT_EQ(delivered, expected) << "torn at byte " << cut;
  }

  // Full-file recovery sanity: every kind replays into a live catalog.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  Instance recovered;
  EXPECT_EQ(recover_from_wal(recovered, path), 8u);
  EXPECT_TRUE(recovered.table_exists("t1"));
  EXPECT_TRUE(recovered.table_exists("t2"));
  EXPECT_FALSE(recovered.table_exists("tmp"));
  EXPECT_EQ(recovered.list_splits("t2"), (std::vector<std::string>{"m"}));
  Scanner scan(recovered, "t2");
  EXPECT_EQ(scan.read_all().size(), 3u);
  std::remove(path.c_str());
}

TEST(Wal, RoundTripsUnderEverySyncMode) {
  for (const auto mode : {WalSyncMode::kPerAppend, WalSyncMode::kGroup,
                          WalSyncMode::kInterval}) {
    const auto path = temp_wal_path("sync_modes");
    std::remove(path.c_str());
    WalOptions opts;
    opts.sync_mode = mode;
    {
      Instance db;
      db.attach_wal(std::make_shared<WriteAheadLog>(path, opts));
      db.create_table("t");
      for (int i = 0; i < 40; ++i) {
        Mutation m("r" + util::zero_pad(static_cast<std::uint64_t>(i), 3));
        m.put("f", "q", "v" + std::to_string(i));
        db.apply("t", m);
      }
      db.sync_wal();
    }
    Instance recovered;
    const auto replayed = recover_from_wal(recovered, path);
    EXPECT_EQ(replayed, 41u) << "mode " << static_cast<int>(mode);
    Scanner scan(recovered, "t");
    EXPECT_EQ(scan.read_all().size(), 40u) << "mode " << static_cast<int>(mode);
    std::remove(path.c_str());
  }
}

TEST(Wal, SequenceNumbersSurviveRotationAndReopen) {
  const auto path = temp_wal_path("seq");
  std::remove(path.c_str());
  std::uint64_t seq_after_rotate = 0;
  {
    auto wal = std::make_shared<WriteAheadLog>(path);
    wal->log_create_table("t");
    wal->log_create_table("u");
    EXPECT_EQ(wal->next_seq(), 3u);
    wal->rotate();  // truncates the FILE, not the sequence
    EXPECT_EQ(wal->next_seq(), 3u);
    wal->log_create_table("v");
    wal->sync();
    seq_after_rotate = wal->next_seq();
    EXPECT_EQ(seq_after_rotate, 4u);
  }
  // Reopening continues after the last intact record.
  WriteAheadLog reopened(path);
  EXPECT_EQ(reopened.next_seq(), seq_after_rotate);
  // And replay with min_seq filters the already-covered records.
  std::size_t delivered = 0;
  replay_wal(path, [&](const WalRecord&) { ++delivered; }, 3);
  EXPECT_EQ(delivered, 1u);  // only "v" (seq 3) is at/past min_seq
  std::remove(path.c_str());
}

TEST(Wal, ReopenOverTornTailKeepsLaterRecords) {
  const auto path = temp_wal_path("reopen_torn");
  std::remove(path.c_str());
  {
    Instance db;
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    db.create_table("t");
    for (int i = 0; i < 5; ++i) {
      Mutation m("before" + std::to_string(i));
      m.put("f", "q", "v");
      db.apply("t", m);
    }
    db.sync_wal();
  }
  // A crash cut the last record short by 3 bytes.
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_GT(content.size(), 3u);
  content.resize(content.size() - 3);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }

  // The restart: recover, then reopen the same log for new writes.
  {
    Instance db;
    EXPECT_EQ(recover_from_wal(db, path), 5u);  // create + 4 intact
    EXPECT_EQ(Scanner(db, "t").read_all().size(), 4u);
    db.attach_wal(std::make_shared<WriteAheadLog>(path));
    for (int i = 0; i < 5; ++i) {
      Mutation m("after" + std::to_string(i));
      m.put("f", "q", "v");
      db.apply("t", m);
    }
    db.sync_wal();
  }

  // The second recovery replays what the restart wrote, too.
  Instance recovered;
  EXPECT_EQ(recover_from_wal(recovered, path), 10u);
  EXPECT_EQ(Scanner(recovered, "t").read_all().size(), 9u);
  std::remove(path.c_str());
}

TEST(CloneTable, IndependentCopyWithDataAndSplits) {
  Instance db(2);
  db.create_table("src");
  db.add_splits("src", {"m"});
  for (const char* row : {"a", "n", "z"}) {
    Mutation m(row);
    m.put("f", "q", std::string("v-") + row);
    db.apply("src", m);
  }
  db.clone_table("src", "copy");
  EXPECT_EQ(db.list_splits("copy"), db.list_splits("src"));
  Scanner scan_copy(db, "copy");
  EXPECT_EQ(scan_copy.read_all().size(), 3u);
  // Mutating the copy leaves the source untouched.
  Mutation m("extra");
  m.put("f", "q", "only-in-copy");
  db.apply("copy", m);
  Scanner scan_src(db, "src");
  EXPECT_EQ(scan_src.read_all().size(), 3u);
  Scanner scan_copy2(db, "copy");
  EXPECT_EQ(scan_copy2.read_all().size(), 4u);
  // Cloning onto an existing name fails.
  EXPECT_THROW(db.clone_table("src", "copy"), std::invalid_argument);
}

TEST(CloneTable, PreservesConfigBehaviour) {
  Instance db;
  TableConfig cfg;
  cfg.versioning = false;
  cfg.attach_iterator({10, "sum", kAllScopes, [](IterPtr src) {
                         return std::make_unique<CombinerIterator>(
                             std::move(src), sum_double_reducer());
                       }});
  db.create_table("src", std::move(cfg));
  for (int i = 0; i < 5; ++i) {
    Mutation m("counter");
    m.put("f", "q", encode_double(1.0));
    db.apply("src", m);
  }
  db.clone_table("src", "copy");
  // The clone inherits the combiner: its scan folds the five versions.
  Scanner scan(db, "copy");
  const auto cells = scan.read_all();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(decode_double(cells[0].value), 5.0);
}

}  // namespace
}  // namespace graphulo::nosql
