// The RPC layer and the distributed verb semantics, in-process:
//   * proto codec round trips plus truncation / bit-flip / hostile-count
//     fuzz sweeps (mirroring the test_io RFL3 corruption sweep),
//   * frame-level torn-frame and corruption rejection over a real
//     loopback socket pair,
//   * RpcServer + TabletService + RpcClient coverage of every verb,
//     the status→exception mapping, exactly-once write dedup, lease
//     expiry + resume, and propagated deadlines,
//   * distributed::Cluster scan/writer surfaces and a two-server
//     TableMult checked against the client-side spgemm reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "assoc/table_io.hpp"
#include "core/tablemult.hpp"
#include "distributed/cluster.hpp"
#include "distributed/proto.hpp"
#include "distributed/tablet_service.hpp"
#include "la/la.hpp"
#include "nosql/admission.hpp"
#include "nosql/codec.hpp"
#include "nosql/instance.hpp"
#include "nosql/scanner.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "rpc/wire.hpp"
#include "test_helpers.hpp"
#include "util/checksum.hpp"
#include "util/fault.hpp"

namespace graphulo {
namespace {

using namespace distributed;
using nosql::wire::WireError;

nosql::Key sample_key() {
  nosql::Key k;
  k.row = "v|0000042";
  k.family = "deg";
  k.qualifier = "out";
  k.visibility = "public";
  k.ts = 12345;
  k.deleted = false;
  return k;
}

proto::WriteBatchRequest sample_write_batch() {
  proto::WriteBatchRequest req;
  req.table = "A";
  req.writer_id = "tm/7/1";
  req.first_seq = 41;
  nosql::Mutation m1("v|0000001");
  m1.put("f", "q", nosql::encode_double(2.5));
  m1.put_delete("f", "old");
  nosql::Mutation m2("v|0000002");
  m2.put("f", "q", nosql::encode_double(-1.0));
  req.mutations = {m1, m2};
  return req;
}

proto::ScanOpenRequest sample_scan_open() {
  proto::ScanOpenRequest req;
  req.table = "A";
  req.range = nosql::Range::half_open_row_range("v|0000001", "v|0000009");
  req.batch_cells = 64;
  req.has_resume = true;
  req.resume_after = sample_key();
  return req;
}

void expect_range_eq(const nosql::Range& a, const nosql::Range& b) {
  EXPECT_EQ(a.has_start, b.has_start);
  EXPECT_EQ(a.start_inclusive, b.start_inclusive);
  EXPECT_EQ(a.has_end, b.has_end);
  EXPECT_EQ(a.end_inclusive, b.end_inclusive);
  if (a.has_start && b.has_start) {
    EXPECT_EQ(a.start, b.start);
  }
  if (a.has_end && b.has_end) {
    EXPECT_EQ(a.end, b.end);
  }
}

// ---- proto codec --------------------------------------------------------

TEST(ProtoCodec, WriteBatchRoundTrip) {
  const auto req = sample_write_batch();
  const auto back = proto::decode_write_batch_request(proto::encode(req));
  EXPECT_EQ(back.table, req.table);
  EXPECT_EQ(back.writer_id, req.writer_id);
  EXPECT_EQ(back.first_seq, req.first_seq);
  ASSERT_EQ(back.mutations.size(), req.mutations.size());
  for (std::size_t i = 0; i < req.mutations.size(); ++i) {
    EXPECT_EQ(back.mutations[i].row(), req.mutations[i].row());
    ASSERT_EQ(back.mutations[i].updates().size(),
              req.mutations[i].updates().size());
  }

  proto::WriteBatchResponse resp;
  resp.applied = 7;
  resp.skipped = 3;
  const auto rback = proto::decode_write_batch_response(proto::encode(resp));
  EXPECT_EQ(rback.applied, 7u);
  EXPECT_EQ(rback.skipped, 3u);
}

TEST(ProtoCodec, ScanMessagesRoundTrip) {
  const auto open = sample_scan_open();
  const auto oback = proto::decode_scan_open_request(proto::encode(open));
  EXPECT_EQ(oback.table, open.table);
  expect_range_eq(oback.range, open.range);
  EXPECT_EQ(oback.batch_cells, open.batch_cells);
  EXPECT_EQ(oback.has_resume, open.has_resume);
  EXPECT_EQ(oback.resume_after, open.resume_after);

  proto::ScanOpenResponse lease;
  lease.lease_id = 0xDEADBEEFCAFEull;
  EXPECT_EQ(proto::decode_scan_open_response(proto::encode(lease)).lease_id,
            lease.lease_id);

  proto::ScanContinueRequest cont;
  cont.lease_id = 99;
  EXPECT_EQ(proto::decode_scan_continue_request(proto::encode(cont)).lease_id,
            99u);

  proto::ScanContinueResponse cells;
  cells.done = true;
  cells.cells.push_back({sample_key(), "3.5"});
  nosql::Key k2 = sample_key();
  k2.row = "v|0000043";
  k2.deleted = true;
  cells.cells.push_back({k2, ""});
  const auto cback = proto::decode_scan_continue_response(proto::encode(cells));
  EXPECT_EQ(cback.done, true);
  ASSERT_EQ(cback.cells.size(), 2u);
  EXPECT_EQ(cback.cells[0], cells.cells[0]);
  EXPECT_EQ(cback.cells[1], cells.cells[1]);

  proto::ScanCloseRequest close_req;
  close_req.lease_id = 123;
  EXPECT_EQ(proto::decode_scan_close_request(proto::encode(close_req)).lease_id,
            123u);
}

TEST(ProtoCodec, ControlMessagesRoundTrip) {
  proto::TabletLookupRequest lookup;
  lookup.has_table = true;
  lookup.table = "edges";
  const auto lback = proto::decode_tablet_lookup_request(proto::encode(lookup));
  EXPECT_EQ(lback.has_table, true);
  EXPECT_EQ(lback.table, "edges");

  proto::TabletLookupResponse map;
  map.server_index = 1;
  map.server_count = 3;
  map.boundaries = {"v|0000100", "v|0000200"};
  map.table_exists = true;
  const auto mback = proto::decode_tablet_lookup_response(proto::encode(map));
  EXPECT_EQ(mback.server_index, 1u);
  EXPECT_EQ(mback.server_count, 3u);
  EXPECT_EQ(mback.boundaries, map.boundaries);
  EXPECT_EQ(mback.table_exists, true);

  proto::EnsureTableRequest ensure;
  ensure.table = "C";
  ensure.preset = "sum";
  const auto eback = proto::decode_ensure_table_request(proto::encode(ensure));
  EXPECT_EQ(eback.table, "C");
  EXPECT_EQ(eback.preset, "sum");

  proto::CompactTableRequest compact;
  compact.table = "C";
  EXPECT_EQ(proto::decode_compact_table_request(proto::encode(compact)).table,
            "C");

  proto::StatusResponse status;
  status.server_index = 2;
  status.tables = {"A", "B"};
  status.live_leases = 4;
  status.writes_applied = 1000;
  status.writes_skipped = 17;
  status.cells_scanned = 123456;
  const auto sback = proto::decode_status_response(proto::encode(status));
  EXPECT_EQ(sback.server_index, 2u);
  EXPECT_EQ(sback.tables, status.tables);
  EXPECT_EQ(sback.live_leases, 4u);
  EXPECT_EQ(sback.writes_applied, 1000u);
  EXPECT_EQ(sback.writes_skipped, 17u);
  EXPECT_EQ(sback.cells_scanned, 123456u);
}

/// Every proto decoder must reject every strict prefix of a valid
/// encoding (truncation can strike at any byte on a torn connection)
/// and trailing garbage after a complete message.
TEST(ProtoCodec, RejectsTruncationAtEveryLength) {
  const std::vector<std::pair<std::string, std::string>> encoded = {
      {"write_batch_request", proto::encode(sample_write_batch())},
      {"scan_open_request", proto::encode(sample_scan_open())},
      {"scan_continue_response",
       [] {
         proto::ScanContinueResponse m;
         m.cells.push_back({sample_key(), "1"});
         return proto::encode(m);
       }()},
      {"tablet_lookup_response",
       [] {
         proto::TabletLookupResponse m;
         m.server_count = 2;
         m.boundaries = {"v|0000100"};
         return proto::encode(m);
       }()},
      {"status_response",
       [] {
         proto::StatusResponse m;
         m.tables = {"A"};
         return proto::encode(m);
       }()},
  };
  const auto decode_any = [](const std::string& name, const std::string& body) {
    if (name == "write_batch_request") proto::decode_write_batch_request(body);
    if (name == "scan_open_request") proto::decode_scan_open_request(body);
    if (name == "scan_continue_response")
      proto::decode_scan_continue_response(body);
    if (name == "tablet_lookup_response")
      proto::decode_tablet_lookup_response(body);
    if (name == "status_response") proto::decode_status_response(body);
  };
  for (const auto& [name, body] : encoded) {
    ASSERT_GT(body.size(), 4u) << name;
    for (std::size_t len = 0; len < body.size(); ++len) {
      EXPECT_THROW(decode_any(name, body.substr(0, len)), WireError)
          << name << " truncated to " << len << " bytes not rejected";
    }
    EXPECT_THROW(decode_any(name, body + 'x'), WireError)
        << name << " with trailing garbage not rejected";
  }
}

/// Single-bit corruption sweep over every proto encoding: a flipped bit
/// may legally change decoded CONTENT (bodies carry no checksum — the
/// frame CRC owns integrity), but decoding must never crash, read out
/// of bounds, or allocate unboundedly. Anything structural throws
/// WireError; the ASan/TSan CI legs make the "never out of bounds" part
/// load-bearing.
TEST(ProtoCodec, BitFlipSweepNeverCrashes) {
  const std::vector<std::pair<std::string, std::string>> encoded = {
      {"write_batch_request", proto::encode(sample_write_batch())},
      {"scan_open_request", proto::encode(sample_scan_open())},
      {"scan_continue_response",
       [] {
         proto::ScanContinueResponse m;
         m.cells.push_back({sample_key(), "1"});
         m.cells.push_back({sample_key(), "2"});
         return proto::encode(m);
       }()},
      {"tablet_lookup_response",
       [] {
         proto::TabletLookupResponse m;
         m.server_count = 3;
         m.boundaries = {"v|0000100", "v|0000200"};
         return proto::encode(m);
       }()},
  };
  std::size_t rejected = 0, reinterpreted = 0;
  for (const auto& [name, body] : encoded) {
    for (std::size_t off = 0; off < body.size(); ++off) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string damaged = body;
        damaged[off] = static_cast<char>(damaged[off] ^ (1 << bit));
        try {
          if (name == "write_batch_request") {
            proto::decode_write_batch_request(damaged);
          } else if (name == "scan_open_request") {
            proto::decode_scan_open_request(damaged);
          } else if (name == "scan_continue_response") {
            proto::decode_scan_continue_response(damaged);
          } else {
            proto::decode_tablet_lookup_response(damaged);
          }
          ++reinterpreted;
        } catch (const WireError&) {
          ++rejected;
        }
      }
    }
  }
  // Most flips land in length prefixes / counts and must be rejected.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(reinterpreted, 0u);  // flips inside string payloads are legal
}

/// A hostile list count (u32 max) must be rejected up front, not
/// trusted as a reserve() size.
TEST(ProtoCodec, RejectsHostileListCounts) {
  std::string body;
  nosql::wire::put_string(body, "A");        // table
  nosql::wire::put_string(body, "w");        // writer_id
  nosql::wire::put_u64(body, 0);             // first_seq
  nosql::wire::put_u32(body, 0xFFFFFFFFu);   // mutation count, no bytes behind
  EXPECT_THROW(proto::decode_write_batch_request(body), WireError);

  std::string scan;
  nosql::wire::put_u32(scan, 0xFFFFFF00u);   // cell count
  nosql::wire::put_u8(scan, 0);              // done
  EXPECT_THROW(proto::decode_scan_continue_response(scan), WireError);
}

/// Mutation i of a write batch is stream seq first_seq + i, and the
/// stream's mark moves to seq + 1: a range reaching 2^64 would wrap the
/// mark to 0, so the decoder rejects it.
TEST(ProtoCodec, RejectsWrappingSequenceRange) {
  proto::WriteBatchRequest req = sample_write_batch();
  ASSERT_EQ(req.mutations.size(), 2u);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t first : {kMax, kMax - 1}) {
    req.first_seq = first;
    EXPECT_THROW(proto::decode_write_batch_request(proto::encode(req)),
                 WireError)
        << first;
  }
  req.first_seq = kMax - 2;  // last seq kMax - 1, mark kMax: no wrap
  EXPECT_EQ(proto::decode_write_batch_request(proto::encode(req)).first_seq,
            kMax - 2);
  req.mutations.clear();  // an empty batch names no sequence numbers
  req.first_seq = kMax;
  EXPECT_NO_THROW(proto::decode_write_batch_request(proto::encode(req)));
}

// ---- request/response headers -------------------------------------------

TEST(WireHeaders, RequestResponseRoundTrip) {
  rpc::RequestHeader req;
  req.verb = rpc::Verb::kScanContinue;
  req.request_id = 77;
  req.deadline_ms = 1500;
  const auto payload = rpc::encode_request(req, "body-bytes");
  std::size_t offset = 0;
  const auto back = rpc::decode_request(payload, offset);
  EXPECT_EQ(back.verb, req.verb);
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.deadline_ms, 1500u);
  EXPECT_EQ(payload.substr(offset), "body-bytes");

  rpc::ResponseHeader resp;
  resp.verb = rpc::Verb::kScanContinue;
  resp.request_id = 77;
  resp.status = rpc::Status::kNoSuchLease;
  const auto rpayload = rpc::encode_response(resp, "why");
  offset = 0;
  const auto rback = rpc::decode_response(rpayload, offset);
  EXPECT_EQ(rback.verb, resp.verb);
  EXPECT_EQ(rback.request_id, 77u);
  EXPECT_EQ(rback.status, rpc::Status::kNoSuchLease);
  EXPECT_EQ(rpayload.substr(offset), "why");
}

TEST(WireHeaders, RejectsUnknownVerbAndTruncation) {
  rpc::RequestHeader req;
  req.verb = rpc::Verb::kPing;
  auto payload = rpc::encode_request(req, "");
  payload[0] = static_cast<char>(rpc::kMaxVerb + 1);
  std::size_t offset = 0;
  EXPECT_THROW(rpc::decode_request(payload, offset), WireError);
  for (std::size_t len = 0; len < rpc::encode_request(req, "").size(); ++len) {
    std::size_t off = 0;
    EXPECT_THROW(
        rpc::decode_request(rpc::encode_request(req, "").substr(0, len), off),
        WireError)
        << len;
  }
}

// ---- framing over a real socket pair ------------------------------------

struct SocketPair {
  rpc::Listener listener;
  rpc::Socket client;
  rpc::Socket server;

  SocketPair() {
    listener = rpc::Listener::listen_tcp(0);
    client = rpc::Socket::connect_tcp("127.0.0.1", listener.port(),
                                      std::chrono::milliseconds(2000));
    server = listener.accept();
    // Corruption tests expect recv to fail fast, not hang.
    server.set_deadline(std::chrono::steady_clock::now() +
                        std::chrono::seconds(10));
  }
};

/// Hand-rolls a frame so tests can damage individual regions.
std::string raw_frame(const std::string& payload) {
  std::string frame;
  nosql::wire::put_u32(frame, rpc::kFrameMagic);
  nosql::wire::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  nosql::wire::put_u32(frame, util::crc32(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

TEST(Framing, RoundTripOverLoopback) {
  SocketPair pair;
  const std::string payload = "the quick brown graph";
  rpc::send_frame(pair.client, payload);
  EXPECT_EQ(rpc::recv_frame(pair.server), payload);
  // Hand-rolled framing agrees with send_frame's.
  const auto frame = raw_frame(payload);
  pair.client.send_all(frame.data(), frame.size());
  EXPECT_EQ(rpc::recv_frame(pair.server), payload);
}

/// A torn frame — connection dies mid-message — must surface as
/// ConnectionError at every tear point, never as a short/garbled read.
TEST(Framing, RejectsTornFrames) {
  const auto frame = raw_frame("payload-bytes-here");
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{11},
        rpc::kFrameHeaderBytes, frame.size() - 1}) {
    SocketPair pair;
    pair.client.send_all(frame.data(), keep);
    pair.client.close();
    EXPECT_THROW(rpc::recv_frame(pair.server), rpc::ConnectionError)
        << "torn after " << keep << " bytes";
  }
}

/// Bit flips anywhere in a frame — magic, length, crc, payload — are
/// rejected (the stream cannot be resynchronized, so the connection is
/// abandoned). Mirrors the RFL3 bit-flip sweep at the transport layer.
TEST(Framing, RejectsBitFlips) {
  const auto frame = raw_frame("integrity-checked-payload");
  const std::size_t offsets[] = {0,  2,                           // magic
                                 4,  6,                           // length
                                 8,  11,                          // crc
                                 rpc::kFrameHeaderBytes,          // payload
                                 frame.size() / 2, frame.size() - 1};
  for (const std::size_t off : offsets) {
    SocketPair pair;
    std::string damaged = frame;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x10);
    pair.client.send_all(damaged.data(), damaged.size());
    pair.client.close();
    EXPECT_THROW(rpc::recv_frame(pair.server), rpc::ConnectionError)
        << "bit flip at offset " << off << " not detected";
  }
}

TEST(Framing, RejectsOversizedFrames) {
  SocketPair pair;
  std::string header;
  nosql::wire::put_u32(header, rpc::kFrameMagic);
  nosql::wire::put_u32(header, 1u << 30);  // 1 GiB claimed length
  nosql::wire::put_u32(header, 0);
  pair.client.send_all(header.data(), header.size());
  EXPECT_THROW(rpc::recv_frame(pair.server), rpc::ConnectionError);
  EXPECT_THROW(
      rpc::send_frame(pair.client, std::string(2048, 'x'), /*max=*/1024),
      std::length_error);
}

// ---- end-to-end: RpcServer + TabletService + RpcClient ------------------

/// One in-process tablet server: Instance + TabletService + RpcServer.
struct TestServer {
  nosql::Instance db;
  distributed::TabletService service;
  rpc::RpcServer server;

  explicit TestServer(std::vector<std::string> boundaries = {},
                      std::uint32_t server_index = 0,
                      TabletServiceOptions options = {})
      : service(db, std::move(boundaries), server_index, options),
        server(0,
               [this](rpc::Verb verb, const std::string& body,
                      std::optional<std::chrono::steady_clock::time_point>
                          deadline) { return service.handle(verb, body, deadline); }) {}

  Endpoint endpoint() const { return {"127.0.0.1", server.port()}; }
};

ClusterOptions fast_retries() {
  ClusterOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = std::chrono::microseconds(200);
  return options;
}

std::vector<nosql::Cell> drain(nosql::SortedKVIterator& it) {
  std::vector<nosql::Cell> out;
  while (it.has_top()) {
    out.push_back({it.top_key(), it.top_value()});
    it.next();
  }
  return out;
}

TEST(RpcEndToEnd, PingEchoesAndStatusReports) {
  TestServer ts;
  Cluster cluster({ts.endpoint()}, {}, fast_retries());
  cluster.ping_all();
  cluster.ensure_table("A", /*sum_combiner=*/false);
  EXPECT_TRUE(cluster.table_exists("A"));
  EXPECT_FALSE(cluster.table_exists("absent"));
  // The sum preset never silently accepts a table that does not sum.
  EXPECT_THROW(cluster.ensure_table("A", /*sum_combiner=*/true),
               rpc::RemoteError);
  const auto status = cluster.status(0);
  EXPECT_EQ(status.server_index, 0u);
  EXPECT_EQ(status.tables, std::vector<std::string>{"A"});
  EXPECT_EQ(status.live_leases, 0u);
}

TEST(RpcEndToEnd, WriteThenScanRoundTrips) {
  TestServer ts;
  Cluster cluster({ts.endpoint()}, {}, fast_retries());
  cluster.ensure_table("T", false);
  {
    auto writer = cluster.writer("T", "w1");
    for (int i = 0; i < 50; ++i) {
      nosql::Mutation m(assoc::vertex_key(i));
      m.put("f", "q", nosql::encode_double(i * 0.5));
      writer->add_mutation(std::move(m));
    }
    writer->close();
    EXPECT_EQ(writer->mutations_written(), 50u);
    EXPECT_EQ(writer->last_error_kind(), nosql::MutationSink::ErrorKind::kNone);
  }
  auto it = cluster.scan("T", nosql::Range::all());
  const auto cells = drain(*it);
  ASSERT_EQ(cells.size(), 50u);
  EXPECT_EQ(cells.front().key.row, assoc::vertex_key(0));
  EXPECT_EQ(cells.back().key.row, assoc::vertex_key(49));
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end(),
                             [](const nosql::Cell& a, const nosql::Cell& b) {
                               return a.key < b.key;
                             }));
  // Ranged scan clips.
  auto ranged = cluster.scan(
      "T", nosql::Range::half_open_row_range(assoc::vertex_key(10),
                                             assoc::vertex_key(20)));
  EXPECT_EQ(drain(*ranged).size(), 10u);
  // Re-seek restarts the remote scan.
  ranged->seek(nosql::Range::exact_row(assoc::vertex_key(15)));
  EXPECT_EQ(drain(*ranged).size(), 1u);
}

/// The exactly-once contract: a resent batch (same writer stream, same
/// first_seq) applies nothing and reports every mutation skipped.
TEST(RpcEndToEnd, WriteBatchResendIsDeduped) {
  TestServer ts;
  Cluster cluster({ts.endpoint()}, {}, fast_retries());
  cluster.ensure_table("T", false);

  proto::WriteBatchRequest req;
  req.table = "T";
  req.writer_id = "stream-1";
  req.first_seq = 0;
  for (int i = 0; i < 8; ++i) {
    nosql::Mutation m(assoc::vertex_key(i));
    m.put("f", "q", nosql::encode_double(1.0));
    req.mutations.push_back(std::move(m));
  }
  const auto first = proto::decode_write_batch_response(
      cluster.call(0, rpc::Verb::kWriteBatch, proto::encode(req)));
  EXPECT_EQ(first.applied, 8u);
  EXPECT_EQ(first.skipped, 0u);

  // Byte-identical resend: the lost-ack case.
  const auto resend = proto::decode_write_batch_response(
      cluster.call(0, rpc::Verb::kWriteBatch, proto::encode(req)));
  EXPECT_EQ(resend.applied, 0u);
  EXPECT_EQ(resend.skipped, 8u);

  // Overlapping continuation: seq 4..11 applies only the new suffix.
  req.first_seq = 4;
  const auto overlap = proto::decode_write_batch_response(
      cluster.call(0, rpc::Verb::kWriteBatch, proto::encode(req)));
  EXPECT_EQ(overlap.applied, 4u);
  EXPECT_EQ(overlap.skipped, 4u);

  const auto status = cluster.status(0);
  EXPECT_EQ(status.writes_applied, 12u);
  EXPECT_EQ(status.writes_skipped, 12u);

  // Nothing applied twice: 8 distinct rows, newest version each.
  auto it = cluster.scan("T", nosql::Range::all());
  std::set<std::string> rows;
  for (const auto& cell : drain(*it)) rows.insert(cell.key.row);
  EXPECT_EQ(rows.size(), 8u);
}

/// A resend that races the original (the client's deadline fired and it
/// resent on a new connection while the first send still applies) lands
/// each mutation once: the table checks, applies and advances a stream's
/// mark under that stream's lock.
TEST(RpcEndToEnd, ConcurrentResendsApplyOnce) {
  constexpr int kMutations = 50000;
  TestServer ts;
  ts.db.create_table("T", core::sum_table_config());
  proto::WriteBatchRequest req;
  req.table = "T";
  req.writer_id = "stream-1";
  req.first_seq = 0;
  for (int i = 0; i < kMutations; ++i) {
    nosql::Mutation m(assoc::vertex_key(i));
    m.put("f", "q", nosql::encode_double(1.0));
    req.mutations.push_back(std::move(m));
  }
  const std::string body = proto::encode(req);

  std::atomic<int> ready{0};
  const auto send = [&] {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    const auto reply =
        ts.service.handle(rpc::Verb::kWriteBatch, body, std::nullopt);
    EXPECT_EQ(reply.status, rpc::Status::kOk);
    return proto::decode_write_batch_response(reply.body);
  };
  auto first = std::async(std::launch::async, send);
  auto second = std::async(std::launch::async, send);
  const auto a = first.get();
  const auto b = second.get();
  EXPECT_EQ(a.applied + b.applied, static_cast<std::uint32_t>(kMutations));
  EXPECT_EQ(a.skipped + b.skipped, static_cast<std::uint32_t>(kMutations));

  nosql::Scanner scanner(ts.db, "T");
  const auto cells = scanner.read_all();
  ASSERT_EQ(cells.size(), static_cast<std::size_t>(kMutations));
  std::size_t not_one = 0;
  for (const auto& cell : cells) {
    if (nosql::decode_double(cell.value) != 1.0) ++not_one;
  }
  EXPECT_EQ(not_one, 0u);
}

/// A batch whose sequence range wraps is a bad request, and sending it
/// twice applies nothing either time.
TEST(RpcEndToEnd, WrappingSequenceRangeAppliesNothing) {
  TestServer ts;
  Cluster cluster({ts.endpoint()}, {}, fast_retries());
  cluster.ensure_table("T", /*sum_combiner=*/true);
  proto::WriteBatchRequest req;
  req.table = "T";
  req.writer_id = "w";
  req.first_seq = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < 2; ++i) {
    nosql::Mutation m("r0");
    m.put("f", "q", nosql::encode_double(1.0));
    req.mutations.push_back(std::move(m));
  }
  for (int send = 0; send < 2; ++send) {
    try {
      cluster.call(0, rpc::Verb::kWriteBatch, proto::encode(req));
      FAIL() << "wrapping sequence range accepted";
    } catch (const rpc::RemoteError& e) {
      EXPECT_EQ(e.status(), rpc::Status::kBadRequest);
    }
  }
  EXPECT_EQ(cluster.status(0).writes_applied, 0u);
  auto it = cluster.scan("T", nosql::Range::all());
  EXPECT_TRUE(drain(*it).empty());
}

/// close() is where a writer's final flush fails visibly; afterwards the
/// writer is closed, and its destructor must not send the batch after
/// all (the caller already saw the failure and may have retried).
TEST(RpcEndToEnd, FailedCloseDoesNotResendFromDestructor) {
  TestServer ts;
  Cluster cluster({ts.endpoint()}, {}, fast_retries());
  cluster.ensure_table("T", false);
  {
    auto writer = cluster.writer("T", "w");
    for (int i = 0; i < 10; ++i) {
      nosql::Mutation m(assoc::vertex_key(i));
      m.put("f", "q", "v");
      writer->add_mutation(std::move(m));
    }
    util::fault::reset();
    util::fault::FaultSpec fatal;
    fatal.probability = 1.0;
    fatal.fatal = true;
    util::fault::arm(util::fault::sites::kRpcSend, fatal);
    EXPECT_THROW(writer->close(), util::FatalError);
    util::fault::reset();
  }  // destroyed with the batch still buffered
  EXPECT_EQ(cluster.status(0).writes_applied, 0u);
}

/// A mutation routed to a server that does not own its row is a
/// protocol violation, rejected as kBadRequest — never silently applied
/// to the wrong shard.
TEST(RpcEndToEnd, WrongServerRoutingRejected) {
  TestServer ts({"v|0000100"}, /*server_index=*/0);  // owns rows < v|0000100
  Cluster cluster({ts.endpoint(), ts.endpoint()}, {"v|0000100"},
                  fast_retries());
  cluster.ensure_table("T", false);
  proto::WriteBatchRequest req;
  req.table = "T";
  req.writer_id = "w";
  nosql::Mutation m(assoc::vertex_key(500));  // owned by server 1
  m.put("f", "q", "1");
  req.mutations.push_back(std::move(m));
  try {
    cluster.call(0, rpc::Verb::kWriteBatch, proto::encode(req));
    FAIL() << "misrouted mutation not rejected";
  } catch (const rpc::RemoteError& e) {
    EXPECT_EQ(e.status(), rpc::Status::kBadRequest);
  }
}

TEST(RpcEndToEnd, MissingTableReportsNoSuchTable) {
  TestServer ts;
  Cluster cluster({ts.endpoint()}, {}, fast_retries());
  proto::ScanOpenRequest open;
  open.table = "nope";
  open.range = nosql::Range::all();
  try {
    cluster.call(0, rpc::Verb::kScanOpen, proto::encode(open));
    FAIL() << "scan of missing table not rejected";
  } catch (const rpc::RemoteError& e) {
    EXPECT_EQ(e.status(), rpc::Status::kNoSuchTable);
  }
}

/// The server maps malformed bodies (WireError) to kBadRequest without
/// killing the connection — the next request on the same client works.
TEST(RpcEndToEnd, MalformedBodyIsBadRequestNotDisconnect) {
  TestServer ts;
  rpc::RpcClient client("127.0.0.1", ts.server.port());
  EXPECT_THROW(client.call(rpc::Verb::kWriteBatch, "garbage"),
               rpc::RemoteError);
  EXPECT_EQ(client.call(rpc::Verb::kPing, "still-alive"), "still-alive");
}

/// The full client-side status→exception mapping, driven by a handler
/// that returns whatever status the request names.
TEST(RpcEndToEnd, StatusMapsToTypedExceptions) {
  rpc::RpcServer server(
      0, [](rpc::Verb, const std::string& body,
            std::optional<std::chrono::steady_clock::time_point>) {
        rpc::RpcServer::Response resp;
        resp.status = static_cast<rpc::Status>(body[0]);
        resp.body = "injected";
        return resp;
      });
  rpc::RpcClient client("127.0.0.1", server.port());
  const auto call_status = [&](rpc::Status s) {
    client.call(rpc::Verb::kPing, std::string(1, static_cast<char>(s)));
  };
  EXPECT_NO_THROW(call_status(rpc::Status::kOk));
  EXPECT_THROW(call_status(rpc::Status::kTransient), util::TransientError);
  EXPECT_THROW(call_status(rpc::Status::kOverloaded), nosql::OverloadedError);
  EXPECT_THROW(call_status(rpc::Status::kDeadline), nosql::DeadlineExceeded);
  EXPECT_THROW(call_status(rpc::Status::kNoSuchLease), rpc::LeaseExpired);
  EXPECT_THROW(call_status(rpc::Status::kShuttingDown), rpc::ConnectionError);
  EXPECT_THROW(call_status(rpc::Status::kBadRequest), rpc::RemoteError);
  EXPECT_THROW(call_status(rpc::Status::kFatal), rpc::RemoteError);
}

/// The server-side exception→status mapping, driven by a handler that
/// throws whatever the request names.
TEST(RpcEndToEnd, ExceptionsMapToStatuses) {
  rpc::RpcServer server(
      0, [](rpc::Verb, const std::string& body,
            std::optional<std::chrono::steady_clock::time_point>)
            -> rpc::RpcServer::Response {
        if (body == "wire") throw WireError("bad bytes");
        if (body == "overload") throw nosql::OverloadedError("shed");
        if (body == "deadline") throw nosql::DeadlineExceeded("late");
        if (body == "lease") throw rpc::LeaseExpired("gone");
        if (body == "fatal") throw util::FatalError("broken");
        if (body == "transient") throw util::TransientError("blip");
        throw std::runtime_error("surprise");
      });
  rpc::RpcClient client("127.0.0.1", server.port());
  const auto status_of = [&](const std::string& body) {
    try {
      client.call(rpc::Verb::kPing, body);
    } catch (const rpc::RemoteError& e) {
      return e.status();
    } catch (const nosql::OverloadedError&) {
      return rpc::Status::kOverloaded;
    } catch (const nosql::DeadlineExceeded&) {
      return rpc::Status::kDeadline;
    } catch (const rpc::LeaseExpired&) {
      return rpc::Status::kNoSuchLease;
    } catch (const util::TransientError&) {
      return rpc::Status::kTransient;
    }
    return rpc::Status::kOk;
  };
  EXPECT_EQ(status_of("wire"), rpc::Status::kBadRequest);
  EXPECT_EQ(status_of("overload"), rpc::Status::kOverloaded);
  EXPECT_EQ(status_of("deadline"), rpc::Status::kDeadline);
  EXPECT_EQ(status_of("lease"), rpc::Status::kNoSuchLease);
  EXPECT_EQ(status_of("fatal"), rpc::Status::kFatal);
  EXPECT_EQ(status_of("transient"), rpc::Status::kTransient);
  EXPECT_EQ(status_of("other"), rpc::Status::kFatal);
}

/// Satellite check: a REMOTE admission shed classifies exactly like a
/// local one — the writer's last_error_kind() reports kOverloaded, so
/// callers keying backoff decisions off the kind need no remote special
/// case (DESIGN.md §14 mapping table).
TEST(RpcEndToEnd, RemoteOverloadClassifiesAsOverloaded) {
  rpc::RpcServer server(
      0, [](rpc::Verb verb, const std::string&,
            std::optional<std::chrono::steady_clock::time_point>)
            -> rpc::RpcServer::Response {
        if (verb == rpc::Verb::kWriteBatch) {
          return {rpc::Status::kOverloaded, "admission shed"};
        }
        return {rpc::Status::kOk, ""};
      });
  ClusterOptions options = fast_retries();
  options.retry.max_attempts = 2;
  Cluster cluster({{"127.0.0.1", server.port()}}, {}, options);
  auto writer = cluster.writer("T", "w");
  nosql::Mutation m("row");
  m.put("f", "q", "1");
  writer->add_mutation(std::move(m));
  EXPECT_THROW(writer->flush(), nosql::OverloadedError);
  EXPECT_EQ(writer->last_error_kind(),
            nosql::MutationSink::ErrorKind::kOverloaded);
  ASSERT_TRUE(writer->last_error().has_value());
  writer->abandon();
}

TEST(RpcEndToEnd, DrainingServerAnswersShuttingDown) {
  TestServer ts;
  rpc::RpcClient client("127.0.0.1", ts.server.port());
  EXPECT_EQ(client.call(rpc::Verb::kPing, "x"), "x");
  ts.server.set_draining(true);
  // kShuttingDown surfaces as ConnectionError: transient, so pooled
  // callers retry (elsewhere / later) instead of failing hard.
  EXPECT_THROW(client.call(rpc::Verb::kPing, "x"), rpc::ConnectionError);
}

/// An expired per-call deadline aborts the verb with DeadlineExceeded
/// (cooperative checks inside the write loop / scan fill).
TEST(RpcEndToEnd, ExpiredDeadlineAbortsVerb) {
  nosql::Instance db;
  db.create_table("T");
  TabletService service(db, {}, 0);
  proto::WriteBatchRequest req;
  req.table = "T";
  req.writer_id = "w";
  nosql::Mutation m("row");
  m.put("f", "q", "1");
  req.mutations.push_back(std::move(m));
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_THROW(
      service.handle(rpc::Verb::kWriteBatch, proto::encode(req), past),
      nosql::DeadlineExceeded);
}

/// Lease lifecycle: a reaped lease answers kNoSuchLease and the remote
/// scanner transparently re-opens from its last delivered key — the
/// drained cell stream has no gaps and no duplicates.
TEST(RpcEndToEnd, LeaseExpiryResumesWithoutGapsOrDuplicates) {
  TestServer ts;
  ClusterOptions options = fast_retries();
  options.scan_batch_cells = 4;  // many continues over 60 cells
  Cluster cluster({ts.endpoint()}, {}, options);
  cluster.ensure_table("T", false);
  {
    auto writer = cluster.writer("T", "w");
    for (int i = 0; i < 60; ++i) {
      nosql::Mutation m(assoc::vertex_key(i));
      m.put("f", "q", nosql::encode_double(i));
      writer->add_mutation(std::move(m));
    }
    writer->close();
  }
  auto it = cluster.scan("T", nosql::Range::all());
  std::vector<std::string> rows;
  std::size_t expiries = 0;
  while (it->has_top()) {
    rows.push_back(it->top_key().row);
    // Reap the lease mid-stream, twice, at different depths.
    if (rows.size() == 10 || rows.size() == 37) {
      ts.service.expire_leases_now();
      ++expiries;
    }
    it->next();
  }
  ASSERT_EQ(expiries, 2u);
  ASSERT_EQ(rows.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(rows[i], assoc::vertex_key(i));
  it.reset();
  EXPECT_EQ(ts.service.live_leases(), 0u);
}

TEST(RpcEndToEnd, ScanCloseReleasesLease) {
  TestServer ts;
  ClusterOptions options = fast_retries();
  options.scan_batch_cells = 2;
  Cluster cluster({ts.endpoint()}, {}, options);
  cluster.ensure_table("T", false);
  {
    auto writer = cluster.writer("T", "w");
    for (int i = 0; i < 20; ++i) {
      nosql::Mutation m(assoc::vertex_key(i));
      m.put("f", "q", "1");
      writer->add_mutation(std::move(m));
    }
    writer->close();
  }
  auto it = cluster.scan("T", nosql::Range::all());
  ASSERT_TRUE(it->has_top());
  EXPECT_EQ(ts.service.live_leases(), 1u);
  it.reset();  // destructor closes the lease
  EXPECT_EQ(ts.service.live_leases(), 0u);
}

/// A dropped connection mid-stream (injected at the send syscall) is
/// retried by the pooled call path: reconnect, resend, succeed.
TEST(RpcEndToEnd, InjectedSendFaultRetriesTransparently) {
  TestServer ts;
  Cluster cluster({ts.endpoint()}, {}, fast_retries());
  cluster.ping_all();  // connection up
  util::fault::reset();
  util::fault::arm(util::fault::sites::kRpcSend, {.fire_on_hits = {2}});
  cluster.ping_all();  // first send faults, retry reconnects
  util::fault::reset();
  EXPECT_TRUE(cluster.table_exists("absent") == false);
}

// ---- cluster-level TableMult --------------------------------------------

/// Two in-process servers, boundary mid-keyspace: the distributed
/// TableMult must agree cell-for-cell with the client-side spgemm
/// reference (small-integer inputs keep every partial-product sum
/// exact, so addition order cannot perturb it).
TEST(ClusterTableMult, TwoServerMatchesClientSide) {
  const la::Index n = 48;
  const auto a = testing::random_sparse_int(n, n, 0.12, 4242, 2);
  const std::string boundary = assoc::vertex_key(n / 2);

  TestServer s0({boundary}, 0);
  TestServer s1({boundary}, 1);
  Cluster cluster({s0.endpoint(), s1.endpoint()}, {boundary}, fast_retries());

  cluster.ensure_table("A", false);
  {
    auto writer = cluster.writer("A", "loader");
    for (const auto& t : a.to_triples()) {
      nosql::Mutation m(assoc::vertex_key(t.row));
      m.put(assoc::kValueFamily, assoc::vertex_key(t.col),
            nosql::encode_double(t.val));
      writer->add_mutation(std::move(m));
    }
    writer->close();
  }
  EXPECT_TRUE(cluster.table_exists("A"));
  // Both servers hold their row slice and only their slice.
  EXPECT_GT(cluster.status(0).writes_applied, 0u);
  EXPECT_GT(cluster.status(1).writes_applied, 0u);

  const auto stats = distributed::table_mult(cluster, "A", "A", "C",
                                             {.compact_result = true});
  EXPECT_GT(stats.rows_joined, 0u);
  EXPECT_EQ(stats.partitions.size(), 2u);  // one partition per server

  const auto expected = la::spgemm<la::PlusTimes<double>>(la::transpose(a), a);
  auto it = cluster.scan("C", nosql::Range::all());
  std::vector<la::Triple<double>> triples;
  for (const auto& cell : drain(*it)) {
    const auto value = nosql::decode_double(cell.value);
    ASSERT_TRUE(value.has_value());
    triples.push_back({assoc::parse_vertex_key(cell.key.row),
                       assoc::parse_vertex_key(cell.key.qualifier), *value});
  }
  EXPECT_EQ(la::SpMat<double>::from_triples(n, n, std::move(triples)),
            expected);
}

// ---- partition planning (satellite regression) --------------------------

/// Sampled split rows concentrate on hot rows when the key distribution
/// is skewed; planning must dedupe them so no partition range is empty.
TEST(PartitionPlanning, SkewedTablesNeverYieldEmptyRanges) {
  nosql::Instance db(4);
  db.create_table("T");
  // 3 distinct rows, 400 cells: every sampled split collides.
  for (int i = 0; i < 400; ++i) {
    nosql::Mutation m(assoc::vertex_key(i % 3));
    std::string qualifier = std::to_string(i);
    qualifier.insert(0, 1, 'q');
    m.put("f", qualifier, "1");
    db.apply("T", m);
  }
  for (const std::size_t target : {2u, 4u, 8u, 16u}) {
    const auto bounds = db.partition_rows("T", target);
    for (const auto& b : bounds) {
      EXPECT_FALSE(b.empty()) << "empty boundary masquerading as a bound";
    }
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
    EXPECT_EQ(std::adjacent_find(bounds.begin(), bounds.end()), bounds.end())
        << "duplicate boundary would create an empty partition range";
    // The ranges the boundaries induce are all non-empty.
    std::vector<std::string> cuts;
    cuts.push_back("");
    cuts.insert(cuts.end(), bounds.begin(), bounds.end());
    cuts.push_back("");
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      EXPECT_FALSE(
          nosql::Range::half_open_row_range(cuts[i], cuts[i + 1]).is_empty());
    }
  }
}

}  // namespace
}  // namespace graphulo
