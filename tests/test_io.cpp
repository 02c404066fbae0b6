// Matrix Market / TSV edge-list I/O, the D4M degree filter, the RFile
// on-disk formats (RFL2 legacy + RFL3 packed blocks), and the pinned
// bytes of every stored format (WAL, RFL3 RFile, checkpoint main file).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "assoc/schemas.hpp"
#include "la/la.hpp"
#include "nosql/nosql.hpp"
#include "test_helpers.hpp"
#include "util/checksum.hpp"
#include "util/strings.hpp"

namespace graphulo::la {
namespace {

using graphulo::testing::random_sparse;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/graphulo_io_" + name;
}

TEST(MatrixMarket, RoundTrip) {
  const auto a = random_sparse(17, 23, 0.2, 601);
  const auto path = temp_path("roundtrip.mtx");
  ASSERT_TRUE(write_matrix_market(a, path));
  const auto b = read_matrix_market(path);
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.nnz(), b.nnz());
  for (const auto& t : a.to_triples()) {
    EXPECT_NEAR(b.at(t.row, t.col), t.val, 1e-12);
  }
  std::remove(path.c_str());
}

TEST(MatrixMarket, ReadsSymmetricAndPattern) {
  const auto path = temp_path("sym.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "% a comment line\n"
        << "3 3 2\n"
        << "2 1\n"
        << "3 3\n";
  }
  const auto a = read_matrix_market(path);
  EXPECT_EQ(a.at(1, 0), 1.0);
  EXPECT_EQ(a.at(0, 1), 1.0);  // mirrored
  EXPECT_EQ(a.at(2, 2), 1.0);  // diagonal not duplicated
  EXPECT_EQ(a.nnz(), 3);
  std::remove(path.c_str());
}

TEST(MatrixMarket, RejectsBadInput) {
  EXPECT_THROW(read_matrix_market("/no/such/file.mtx"), std::runtime_error);
  const auto path = temp_path("bad.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
  }
  EXPECT_THROW(read_matrix_market(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n";
  }
  EXPECT_THROW(read_matrix_market(path), std::runtime_error);  // out of range
  std::remove(path.c_str());
}

TEST(EdgeTsv, RoundTrip) {
  const auto a = graphulo::testing::random_sparse_int(12, 12, 0.3, 602);
  const auto path = temp_path("edges.tsv");
  ASSERT_TRUE(write_edge_tsv(a, path));
  EXPECT_EQ(read_edge_tsv(path, 12), a);
  std::remove(path.c_str());
}

TEST(EdgeTsv, InfersDimensionAndSkipsComments) {
  const auto path = temp_path("infer.tsv");
  {
    std::ofstream out(path);
    out << "# comment\n0 1\n1 2 2.5\n% other comment\n4 0\n";
  }
  const auto a = read_edge_tsv(path);
  EXPECT_EQ(a.rows(), 5);  // max id 4
  EXPECT_EQ(a.at(0, 1), 1.0);   // default weight
  EXPECT_EQ(a.at(1, 2), 2.5);
  EXPECT_EQ(a.at(4, 0), 1.0);
  std::remove(path.c_str());
}

TEST(EdgeTsv, DuplicatesSumAndErrorsSurface) {
  const auto path = temp_path("dups.tsv");
  {
    std::ofstream out(path);
    out << "0 1 2\n0 1 3\n";
  }
  EXPECT_EQ(read_edge_tsv(path).at(0, 1), 5.0);
  {
    std::ofstream out(path);
    out << "not numbers\n";
  }
  EXPECT_THROW(read_edge_tsv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(DegreeFilter, DropsCommonAndRareColumns) {
  using assoc::AssocArray;
  // col "stop" in 3 rows, "mid" in 2, "rare" in 1.
  auto a = AssocArray::from_entries({{"r1", "stop", 1.0}, {"r2", "stop", 5.0},
                                     {"r3", "stop", 1.0}, {"r1", "mid", 1.0},
                                     {"r2", "mid", 1.0}, {"r3", "rare", 1.0}});
  const auto filtered = assoc::filter_cols_by_degree(a, 2.0, 2.0);
  EXPECT_EQ(filtered.col_keys(), (std::vector<std::string>{"mid"}));
  // Degree counts structure, not value sums (stop has value-sum 7 but
  // degree 3).
  const auto no_rare = assoc::filter_cols_by_degree(a, 2.0, 0.0);
  EXPECT_EQ(no_rare.col_keys(), (std::vector<std::string>{"mid", "stop"}));
}

}  // namespace
}  // namespace graphulo::la

namespace graphulo::nosql {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/graphulo_rfile_" + name;
}

/// Adjacency-shaped sorted cells: repeated row keys, shared qualifier
/// prefixes — the workload the prefix codec exists for.
std::vector<Cell> graph_cells(std::size_t rows, std::size_t degree) {
  std::vector<Cell> cells;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t d = 0; d < degree; ++d) {
      Cell c;
      c.key.row = "v" + util::zero_pad(r, 6);
      c.key.family = "out";
      c.key.qualifier = "v" + util::zero_pad((r * 7 + d * 13) % rows, 6);
      c.key.ts = static_cast<std::int64_t>(1000 + d);
      c.value = "1";
      cells.push_back(std::move(c));
    }
  }
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.key < b.key; });
  return cells;
}

std::vector<Cell> drain(const RFile& f) {
  std::vector<Cell> out;
  auto it = f.iterator();
  it->seek(Range::all());
  while (it->has_top()) {
    out.push_back({it->top_key(), it->top_value()});
    it->next();
  }
  return out;
}

/// RFL3 is the only on-disk layout: a file carrying the retired RFL2
/// magic is rejected like any other foreign file, even when the rest of
/// it is a well-formed RFL3 body.
TEST(RFileFormat, ReadRejectsRfl2Magic) {
  const auto rf = RFile::from_sorted(graph_cells(40, 6));
  const auto path = temp_path("rfl2_magic.rf");
  ASSERT_TRUE(rf->write_to(path));
  ASSERT_NE(RFile::read_from(path), nullptr);  // the pristine file loads

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // On-disk magic is "3LFR" little-endian (0x52464c33); "2LFR" is RFL2.
  ASSERT_EQ(bytes.substr(0, 4), "3LFR");
  bytes[0] = '2';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(RFile::read_from(path), nullptr);
  std::remove(path.c_str());
}

TEST(RFileFormat, Rfl3RoundTripAcrossCompressors) {
  const auto cells = graph_cells(60, 5);
  for (const auto comp : {RFileCompressor::kNone, RFileCompressor::kLz}) {
    RFileOptions opts;
    opts.index_stride = 48;
    opts.restart_interval = 8;
    opts.compressor = comp;
    const auto rf = RFile::from_sorted(cells, opts);
    const auto path = temp_path("rfl3_roundtrip.rf");
    ASSERT_TRUE(rf->write_to(path));
    const auto reread = RFile::read_from(path);
    ASSERT_NE(reread, nullptr);
    EXPECT_EQ(reread->entry_count(), cells.size());
    EXPECT_EQ(reread->block_stride(), rf->block_stride());
    EXPECT_EQ(reread->total_block_bytes(), rf->total_block_bytes());
    EXPECT_EQ(reread->first_key(), rf->first_key());
    EXPECT_EQ(reread->last_key(), rf->last_key());
    const auto a = drain(*rf);
    const auto b = drain(*reread);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].key, b[i].key);
      EXPECT_EQ(a[i].value, b[i].value);
    }
    // Pruning metadata survives the round trip.
    EXPECT_TRUE(reread->may_contain_row(cells.front().key.row));
    EXPECT_FALSE(reread->may_contain_row("zzz-absent"));
    EXPECT_EQ(reread->sample_rows(5), rf->sample_rows(5));
    std::remove(path.c_str());
  }
}

/// Every byte of an RFL3 file is covered by a checksum (header CRC or a
/// per-block CRC), so any single bit flip must be rejected at load.
TEST(RFileFormat, Rfl3RejectsBitFlips) {
  const auto cells = graph_cells(50, 6);
  RFileOptions opts;
  opts.index_stride = 32;
  opts.compressor = RFileCompressor::kLz;
  const auto rf = RFile::from_sorted(cells, opts);
  const auto path = temp_path("rfl3_corrupt.rf");
  ASSERT_TRUE(rf->write_to(path));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  // Offsets spanning magic, header length, header body, header CRC and
  // the packed block data section. Byte 11 is the top byte of the u64
  // header length: the flipped length must read as corruption before
  // anything is allocated for it.
  const std::size_t offsets[] = {1,
                                 6,
                                 11,
                                 bytes.size() / 4,
                                 bytes.size() / 2,
                                 2 * bytes.size() / 3,
                                 bytes.size() - 3};
  for (const std::size_t off : offsets) {
    std::string damaged = bytes;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x10);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    EXPECT_EQ(RFile::read_from(path), nullptr)
        << "bit flip at offset " << off << " not detected";
  }
  // Truncation and trailing garbage are rejected too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_EQ(RFile::read_from(path), nullptr) << "truncation not detected";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.write("xx", 2);
  }
  EXPECT_EQ(RFile::read_from(path), nullptr)
      << "trailing garbage not detected";
  // The pristine bytes still load (the harness above really was the
  // only difference).
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_NE(RFile::read_from(path), nullptr);
  std::remove(path.c_str());
}

// ---- format pins ----------------------------------------------------------
// Each test builds one fixed artifact and checks its size and CRC32
// against constants taken from the implementation that first wrote the
// format, so any change to a stored byte fails here.

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct Pin {
  std::size_t size;
  std::uint32_t crc;
};

Pin pin_of(const std::string& bytes) {
  return {bytes.size(), util::crc32(bytes.data(), bytes.size())};
}

/// A delete carrying a visibility and an explicit timestamp, next to a
/// visible put without one: the update fields the sugar of Mutation
/// cannot express.
Mutation mixed_mutation() {
  ColumnUpdate del;
  del.family = "f";
  del.qualifier = "q";
  del.visibility = "A";
  del.ts = 5;
  del.has_ts = true;
  del.deleted = true;
  ColumnUpdate put;
  put.family = "f";
  put.qualifier = "secret";
  put.visibility = "B";
  put.value = "s";
  Mutation m("r");
  m.add_update(std::move(del)).add_update(std::move(put));
  return m;
}

TEST(FormatPins, WalWithEveryRecordKind) {
  const auto path = temp_path("pin.wal");
  std::remove(path.c_str());
  {
    WriteAheadLog wal(path);
    wal.log_create_table("t");
    wal.log_add_splits("t", {"g", "p"});
    Mutation simple("alpha");
    simple.put("f", "q", "v1");
    wal.log_mutation("t", simple, 7);
    Mutation explicit_fields("beta");
    explicit_fields.put("fam", "qual", "vis", 777, "v2");
    wal.log_mutation("t", explicit_fields, 8);
    wal.log_mutation("t", mixed_mutation(), 9);
    wal.log_clone_table("t", "t2");
    wal.log_delete_table("t2");
    wal.sync();
  }
  const Pin pin = pin_of(slurp(path));
  EXPECT_EQ(pin.size, 381u);
  EXPECT_EQ(pin.crc, 3823159021u);
  std::remove(path.c_str());
}

TEST(FormatPins, Rfl3RFileWithLzBlocks) {
  RFileOptions opts;
  opts.index_stride = 32;
  opts.compressor = RFileCompressor::kLz;
  const auto rf = RFile::from_sorted(graph_cells(50, 6), opts);
  const auto path = temp_path("pin.rf");
  ASSERT_TRUE(rf->write_to(path));
  const Pin pin = pin_of(slurp(path));
  EXPECT_EQ(pin.size, 3179u);
  EXPECT_EQ(pin.crc, 785358198u);
  std::remove(path.c_str());
}

TEST(FormatPins, CheckpointMainFile) {
  namespace fs = std::filesystem;
  const fs::path dir = ::testing::TempDir() + "/graphulo_pin_checkpoint";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ckpt = (dir / "db.ckpt").string();
  {
    Instance db(1);
    db.attach_wal(std::make_shared<WriteAheadLog>((dir / "db.wal").string()));
    db.create_table("t");
    db.add_splits("t", {"m"});
    Mutation a("alpha");
    a.put("f", "q", "v1");
    db.apply("t", a);
    Mutation z("zulu");
    z.put("fam", "qual", "vis", 777, "v2");
    db.apply("t", z);
    db.apply("t", mixed_mutation());
    db.create_table("u");
    write_checkpoint(db, ckpt);
  }
  const Pin pin = pin_of(slurp(ckpt));
  EXPECT_EQ(pin.size, 303u);
  EXPECT_EQ(pin.crc, 3270921066u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace graphulo::nosql
