// Property test for the block scan protocol: for any iterator stack,
// reading through next_block() must produce byte-identical output to
// the cell-at-a-time top/next loop — including across re-seeks and for
// stacks that filter, version, delete-suppress, or combine. Stacks and
// data are randomized; block sizes span 1..4096.

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/table_scan.hpp"
#include "nosql/block_cache.hpp"
#include "nosql/block_codec.hpp"
#include "nosql/codec.hpp"
#include "nosql/combiner.hpp"
#include "nosql/filter_iterators.hpp"
#include "nosql/merge_iterator.hpp"
#include "nosql/nosql.hpp"
#include "nosql/rfile.hpp"
#include "util/strings.hpp"

namespace graphulo::nosql {
namespace {

/// Drains an iterator cell-at-a-time (the reference semantics).
std::vector<Cell> drain_cellwise(SortedKVIterator& it) {
  std::vector<Cell> out;
  while (it.has_top()) {
    out.push_back({it.top_key(), it.top_value()});
    it.next();
  }
  return out;
}

/// Drains an iterator through next_block() with a (possibly varying)
/// block size schedule.
std::vector<Cell> drain_blockwise(SortedKVIterator& it, std::mt19937& rng) {
  std::vector<Cell> out;
  CellBlock block;
  while (it.has_top()) {
    block.clear();
    const std::size_t max = 1 + rng() % 4096;
    const std::size_t n = it.next_block(block, max);
    EXPECT_GE(n, 1u) << "has_top() promised a cell but next_block gave none";
    EXPECT_EQ(n, block.size());
    out.insert(out.end(), block.begin(), block.end());
  }
  // Exhausted iterators must keep returning 0 and append nothing.
  block.clear();
  EXPECT_EQ(it.next_block(block, 64), 0u);
  EXPECT_TRUE(block.empty());
  return out;
}

void expect_identical(const std::vector<Cell>& a, const std::vector<Cell>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << what << " cell " << i;
    EXPECT_EQ(a[i].value, b[i].value) << what << " cell " << i;
  }
}

/// Random sorted cell set: duplicate keys at multiple timestamps, some
/// deletes, a few column families/qualifiers.
std::vector<Cell> random_cells(std::mt19937& rng, std::size_t rows) {
  std::map<Key, Value> cells;  // Key ordering dedupes identical keys
  const std::size_t n = rows * (1 + rng() % 4);
  for (std::size_t i = 0; i < n; ++i) {
    Cell c;
    c.key.row = util::zero_pad(rng() % rows, 4);
    c.key.family = (rng() % 2) ? "fa" : "fb";
    c.key.qualifier = "q" + std::to_string(rng() % 3);
    c.key.ts = static_cast<std::int64_t>(rng() % 8);
    c.key.deleted = (rng() % 10 == 0);
    c.value = c.key.deleted ? "" : encode_double(double(rng() % 100));
    cells[c.key] = c.value;
  }
  std::vector<Cell> out;
  out.reserve(cells.size());
  for (auto& [k, v] : cells) out.push_back({k, v});
  return out;
}

/// Builds a randomized stack over 1..4 sorted runs: merge, then a random
/// subset of {deleting, versioning, column filter, summing combiner}.
IterPtr random_stack(std::mt19937& rng, const std::vector<Cell>& cells,
                     std::uint32_t shape) {
  const std::size_t ways = 1 + rng() % 4;
  std::vector<std::vector<Cell>> runs(ways);
  for (const auto& c : cells) runs[rng() % ways].push_back(c);
  std::vector<IterPtr> children;
  for (auto& run : runs) {
    children.push_back(
        std::make_unique<VectorIterator>(std::make_shared<std::vector<Cell>>(
            std::move(run))));
  }
  IterPtr it = std::make_unique<MergeIterator>(std::move(children));
  if (shape & 1) it = std::make_unique<DeletingIterator>(std::move(it));
  if (shape & 2) {
    it = std::make_unique<VersioningIterator>(std::move(it), 1 + rng() % 3);
  }
  if (shape & 4) {
    it = std::make_unique<FilterIterator>(
        std::move(it),
        [](const Key& k, const Value&) { return k.family == "fa"; });
  }
  if (shape & 8) {
    it = std::make_unique<CombinerIterator>(std::move(it),
                                            sum_double_reducer());
  }
  return it;
}

TEST(BlockScan, MatchesCellAtATimeAcrossRandomStacks) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 48; ++trial) {
    const auto cells = random_cells(rng, 40 + rng() % 120);
    // Same shape + same seed stream for both drains: clone the rng so
    // the stacks (and their random parameters) are identical.
    const std::uint32_t shape = rng() % 16;
    std::mt19937 stack_rng = rng;
    auto ref_it = random_stack(stack_rng, cells, shape);
    stack_rng = rng;
    auto blk_it = random_stack(stack_rng, cells, shape);
    rng = stack_rng;  // advance the outer stream once

    ref_it->seek(Range::all());
    blk_it->seek(Range::all());
    const auto ref = drain_cellwise(*ref_it);
    const auto blk = drain_blockwise(*blk_it, rng);
    expect_identical(ref, blk, "trial " + std::to_string(trial) + " shape " +
                                   std::to_string(shape));
  }
}

TEST(BlockScan, MatchesCellAtATimeAcrossRandomSeeks) {
  std::mt19937 rng(987654);
  for (int trial = 0; trial < 24; ++trial) {
    const auto cells = random_cells(rng, 80);
    const std::uint32_t shape = rng() % 16;
    std::mt19937 stack_rng = rng;
    auto ref_it = random_stack(stack_rng, cells, shape);
    stack_rng = rng;
    auto blk_it = random_stack(stack_rng, cells, shape);
    rng = stack_rng;

    // Random seek/re-seek sequence: each seek targets a random row
    // range; after each, both reads must agree. Interleave partial
    // block reads with partial cell reads before re-seeking to stress
    // mixed-mode state.
    for (int s = 0; s < 6; ++s) {
      const auto lo = util::zero_pad(rng() % 80, 4);
      const auto hi = util::zero_pad(rng() % 80, 4);
      const Range r = (s % 3 == 0) ? Range::exact_row(lo)
                      : (lo <= hi) ? Range::row_range(lo, hi)
                                   : Range::row_range(hi, lo);
      ref_it->seek(r);
      blk_it->seek(r);

      // Partial mixed-mode read: a few cells one way, a block the
      // other, then compare the remainder of both streams.
      std::vector<Cell> ref, blk;
      for (int i = 0; i < 3 && ref_it->has_top(); ++i) {
        ref.push_back({ref_it->top_key(), ref_it->top_value()});
        ref_it->next();
      }
      {
        CellBlock b;
        blk_it->next_block(b, 3);
        blk.insert(blk.end(), b.begin(), b.end());
      }
      auto rest_ref = drain_blockwise(*ref_it, rng);  // swap modes too
      auto rest_blk = drain_cellwise(*blk_it);
      ref.insert(ref.end(), rest_ref.begin(), rest_ref.end());
      blk.insert(blk.end(), rest_blk.begin(), rest_blk.end());
      expect_identical(ref, blk, "trial " + std::to_string(trial) + " seek " +
                                     std::to_string(s));
    }
  }
}

TEST(BlockScan, RowReaderBlockSizesAgree) {
  // RowReader must produce the same row stream at any block size,
  // including size 1 (degenerates to the old cell path).
  std::mt19937 rng(4242);
  auto cells = random_cells(rng, 60);
  // Strip deletes/dup timestamps: feed a clean sorted run.
  auto data = std::make_shared<std::vector<Cell>>();
  for (auto& c : cells) {
    if (!c.key.deleted) data->push_back(c);
  }
  auto rows_at = [&](std::size_t bs) {
    auto it = std::make_unique<VectorIterator>(data);
    it->seek(Range::all());
    core::RowReader reader(std::move(it), Range::all(), bs);
    std::vector<core::RowBlock> out;
    while (reader.has_next()) out.push_back(reader.next_row());
    return out;
  };
  const auto ref = rows_at(1);
  for (const std::size_t bs : {2u, 7u, 64u, 1024u, 4096u}) {
    const auto got = rows_at(bs);
    ASSERT_EQ(got.size(), ref.size()) << "block size " << bs;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].row, ref[i].row);
      ASSERT_EQ(got[i].cells.size(), ref[i].cells.size());
      for (std::size_t j = 0; j < ref[i].cells.size(); ++j) {
        EXPECT_EQ(got[i].cells[j].key, ref[i].cells[j].key);
        EXPECT_EQ(got[i].cells[j].value, ref[i].cells[j].value);
      }
    }
  }
}

TEST(BlockScan, ScannerBatchSizesAgreeOnLiveTable) {
  // End to end through Instance/Scanner: a table with deletes, a
  // versioning config, and attached combiner must read identically at
  // batch sizes 1 (legacy path) and 1024 (block path).
  auto run = [](std::size_t batch) {
    Instance db;
    TableConfig cfg;
    cfg.max_versions = 2;
    db.create_table("t", cfg);
    BatchWriter writer(db, "t");
    std::mt19937 rng(777);
    for (int i = 0; i < 400; ++i) {
      Mutation m(util::zero_pad(rng() % 120, 4));
      if (rng() % 12 == 0) {
        m.put_delete("f", "q" + std::to_string(rng() % 3));
      } else {
        m.put("f", "q" + std::to_string(rng() % 3),
              encode_double(double(rng() % 50)));
      }
      writer.add_mutation(std::move(m));
      if (i % 97 == 0) {
        writer.flush();
        db.flush("t");  // force multi-rfile tablets mid-stream
      }
    }
    writer.flush();
    Scanner sc(db, "t");
    sc.set_batch_size(batch);
    std::vector<Cell> out;
    sc.for_each([&](const Key& k, const Value& v) { out.push_back({k, v}); });
    return out;
  };
  const auto a = run(1);
  const auto b = run(1024);
  expect_identical(a, b, "scanner batch 1 vs 1024");
  EXPECT_FALSE(a.empty());
}

// ---- prefix-encoded RFile blocks (RFL3) property tests -------------------

/// The codec round-trips byte-identically at any restart interval.
TEST(EncodedBlocks, CodecRoundTripAcrossRestartIntervals) {
  std::mt19937 rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const auto cells = random_cells(rng, 20 + rng() % 200);
    for (const std::size_t interval : {1u, 2u, 3u, 7u, 16u, 64u, 4096u}) {
      const std::string raw =
          blockcodec::encode_block(cells.data(), cells.size(), interval);
      std::vector<Cell> decoded;
      ASSERT_TRUE(blockcodec::decode_block(raw, cells.size(), decoded))
          << "interval " << interval;
      expect_identical(cells, decoded,
                       "codec interval " + std::to_string(interval));
      // Decoding into a dirty reused buffer must give the same result.
      ASSERT_TRUE(blockcodec::decode_block(raw, cells.size(), decoded));
      expect_identical(cells, decoded, "codec reuse");
    }
  }
}

/// block_lower_bound agrees with std::lower_bound for present, absent,
/// before-first and after-last probe keys.
TEST(EncodedBlocks, LowerBoundMatchesReference) {
  std::mt19937 rng(5150);
  for (int trial = 0; trial < 12; ++trial) {
    const auto cells = random_cells(rng, 30 + rng() % 100);
    for (const std::size_t interval : {1u, 3u, 16u, 50u}) {
      const std::string raw =
          blockcodec::encode_block(cells.data(), cells.size(), interval);
      auto probe = [&](const Key& k) {
        const auto ref = static_cast<std::size_t>(
            std::lower_bound(cells.begin(), cells.end(), k,
                             [](const Cell& c, const Key& key) {
                               return c.key < key;
                             }) -
            cells.begin());
        EXPECT_EQ(blockcodec::block_lower_bound(raw, cells.size(), interval, k),
                  ref)
            << "interval " << interval << " row " << k.row;
      };
      for (int i = 0; i < 40; ++i) {
        Key k = cells[rng() % cells.size()].key;
        switch (rng() % 4) {
          case 0: break;                            // exact hit
          case 1: k.qualifier += "~";    break;     // between keys
          case 2: k.row = "";            break;     // before first
          default: k.row = "\x7f\x7f";   break;     // after last
        }
        probe(k);
      }
    }
  }
}

/// The ceil-stride sampling rule RFile::sample_rows documents, applied
/// to the sorted input directly.
std::vector<std::string> reference_sample_rows(const std::vector<Cell>& cells,
                                               std::size_t n) {
  std::vector<std::string> rows;
  const std::size_t stride = (cells.size() + n - 1) / n;
  for (std::size_t i = 0; i < cells.size() && rows.size() < n; i += stride) {
    if (rows.empty() || rows.back() != cells[i].key.row) {
      rows.push_back(cells[i].key.row);
    }
  }
  const std::string& last = cells.back().key.row;
  if (rows.back() != last) {
    if (rows.size() < n) {
      rows.push_back(last);
    } else {
      rows.back() = last;
    }
  }
  return rows;
}

/// An encoded RFile must be observationally identical to the sorted
/// cells it was built from — full scans, random range seeks, block
/// drains and bounded drains (against a VectorIterator over the input),
/// lower_bound_pos (against std::lower_bound) and sample_rows (against
/// the ceil-stride rule) — across restart intervals, strides and
/// compressor settings.
TEST(EncodedBlocks, EncodedRFileMatchesPlainAcrossKnobs) {
  std::mt19937 rng(90210);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cells = random_cells(rng, 40 + rng() % 150);
    const auto sorted = std::make_shared<const std::vector<Cell>>(cells);
    const std::size_t stride = 1 + rng() % 64;
    for (const auto compressor : {RFileCompressor::kNone, RFileCompressor::kLz}) {
      RFileOptions opts;
      opts.index_stride = stride;
      opts.restart_interval = 1 + rng() % 32;
      opts.compressor = compressor;
      const auto encoded = RFile::from_sorted(cells, opts);
      ASSERT_EQ(encoded->entry_count(), cells.size());

      // Full scan, cellwise and blockwise.
      VectorIterator ref(sorted);
      auto b = encoded->iterator();
      ref.seek(Range::all());
      b->seek(Range::all());
      expect_identical(drain_cellwise(ref), drain_cellwise(*b), "full scan");
      ref.seek(Range::all());
      b->seek(Range::all());
      expect_identical(drain_blockwise(ref, rng), drain_blockwise(*b, rng),
                       "full block scan");

      // Random range seeks + lower_bound_pos agreement.
      for (int s = 0; s < 8; ++s) {
        const auto lo = util::zero_pad(rng() % 200, 4);
        const auto hi = util::zero_pad(rng() % 200, 4);
        const Range r = (s % 3 == 0) ? Range::exact_row(lo)
                        : (lo <= hi) ? Range::row_range(lo, hi)
                                     : Range::row_range(hi, lo);
        ref.seek(r);
        b->seek(r);
        expect_identical(drain_cellwise(ref), drain_cellwise(*b), "range seek");
        const Key probe = min_key_for_row(lo);
        const auto want = static_cast<std::size_t>(
            std::lower_bound(cells.begin(), cells.end(), probe,
                             [](const Cell& c, const Key& k) {
                               return c.key < k;
                             }) -
            cells.begin());
        EXPECT_EQ(encoded->lower_bound_pos(probe), want);
      }

      // Bounded drain (next_block_until) mid-stream.
      ref.seek(Range::all());
      b->seek(Range::all());
      const Key bound = cells[cells.size() / 2].key;
      CellBlock ba, bb;
      while (ref.next_block_until(ba, 7, bound, true) > 0) {
      }
      while (b->next_block_until(bb, 7, bound, true) > 0) {
      }
      ASSERT_EQ(ba.size(), bb.size()) << "bounded drain";
      for (std::size_t i = 0; i < ba.size(); ++i) {
        EXPECT_EQ(ba.begin()[i].key, bb.begin()[i].key);
      }
      expect_identical(drain_cellwise(ref), drain_cellwise(*b),
                       "post-bound remainder");

      for (const std::size_t n : {1u, 3u, 10u}) {
        EXPECT_EQ(encoded->sample_rows(n), reference_sample_rows(cells, n));
      }
    }
  }
}

/// Decode-through-cache: scanning an encoded file twice through a
/// BlockCache decodes each block once — the second pass is pure hits —
/// and the cache charges the ENCODED bytes, not the decoded footprint.
TEST(EncodedBlocks, DecodeThroughCacheChargesEncodedBytes) {
  std::mt19937 rng(60601);
  const auto cells = random_cells(rng, 400);
  RFileOptions opts;
  opts.index_stride = 64;
  opts.compressor = RFileCompressor::kLz;
  const auto rf = RFile::from_sorted(cells, opts);
  BlockCache cache(64 << 20, 1);

  auto scan = [&] {
    auto it = rf->iterator(&cache);
    it->seek(Range::all());
    return drain_cellwise(*it);
  };
  const auto first = scan();
  const auto stats1 = cache.stats();
  EXPECT_EQ(stats1.misses, rf->block_count());
  EXPECT_EQ(stats1.entries, rf->block_count());
  // Budget accounting equals the sum of encoded block charges exactly.
  EXPECT_EQ(stats1.bytes, rf->total_block_bytes());
  // Encoded charges must be well under the materialized footprint.
  std::size_t materialized = 0;
  for (const auto& c : cells) {
    materialized += c.key.row.size() + c.key.family.size() +
                    c.key.qualifier.size() + c.key.visibility.size() +
                    c.value.size() + sizeof(Cell);
  }
  EXPECT_LT(stats1.bytes, materialized / 2);

  const auto second = scan();
  const auto stats2 = cache.stats();
  EXPECT_EQ(stats2.misses, stats1.misses) << "second pass must not decode";
  EXPECT_GT(stats2.hits, stats1.hits);
  expect_identical(first, second, "cached vs fresh scan");
}

/// A table whose cells live in encoded RFiles (flushed mid-stream, with
/// and without the LZ compressor) reads identically through the whole
/// Instance/Scanner stack to the same workload held unflushed in the
/// memtable.
TEST(EncodedBlocks, ScannerAgreesWithPlainTableEndToEnd) {
  auto run = [](bool flush, RFileCompressor comp) {
    Instance db;
    TableConfig cfg;
    cfg.max_versions = 2;
    cfg.flush_entries = 1u << 20;  // only the explicit flushes below
    cfg.rfile.compressor = comp;
    cfg.rfile.index_stride = 32;
    cfg.rfile.cache_bytes = 1 << 20;
    db.create_table("t", cfg);
    BatchWriter writer(db, "t");
    std::mt19937 rng(424242);
    for (int i = 0; i < 500; ++i) {
      Mutation m(util::zero_pad(rng() % 150, 4));
      if (rng() % 12 == 0) {
        m.put_delete("f", "q" + std::to_string(rng() % 3));
      } else {
        m.put("f", "q" + std::to_string(rng() % 3),
              encode_double(double(rng() % 50)));
      }
      writer.add_mutation(std::move(m));
      if (flush && i % 83 == 0) {
        writer.flush();
        db.flush("t");
      }
    }
    writer.flush();
    if (flush) db.flush("t");
    const auto tablet = db.tablets_for_range("t", Range::all())[0].first;
    EXPECT_EQ(tablet->stats().file_count > 0, flush);
    Scanner sc(db, "t");
    sc.set_batch_size(256);
    std::vector<Cell> out;
    sc.for_each([&](const Key& k, const Value& v) { out.push_back({k, v}); });
    return out;
  };
  const auto memtable = run(false, RFileCompressor::kNone);
  const auto packed = run(true, RFileCompressor::kNone);
  const auto packed_lz = run(true, RFileCompressor::kLz);
  expect_identical(memtable, packed, "memtable vs prefix-encoded files");
  expect_identical(memtable, packed_lz, "memtable vs prefix+lz files");
  EXPECT_FALSE(memtable.empty());
}

}  // namespace
}  // namespace graphulo::nosql
