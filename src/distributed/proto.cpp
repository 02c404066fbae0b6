#include "distributed/proto.hpp"

#include <limits>

#include "nosql/codec.hpp"

namespace graphulo::distributed::proto {

namespace wire = nosql::wire;

namespace {

/// Bounded list-count read: a hostile count prefix must not reserve
/// gigabytes before the per-element bounds checks catch the truncation.
std::uint32_t get_count(wire::Cursor& c, std::size_t min_element_bytes) {
  const std::uint32_t n = wire::get_u32(c);
  if (min_element_bytes * static_cast<std::size_t>(n) > c.remaining()) {
    throw wire::WireError("wire: list count exceeds remaining bytes");
  }
  return n;
}

bool get_bool(wire::Cursor& c) {
  const std::uint8_t v = wire::get_u8(c);
  if (v > 1) throw wire::WireError("wire: boolean out of range");
  return v != 0;
}

}  // namespace

// ---- kWriteBatch --------------------------------------------------------

std::string encode(const WriteBatchRequest& m) {
  std::string out;
  wire::put_string(out, m.table);
  wire::put_string(out, m.writer_id);
  wire::put_u64(out, m.first_seq);
  wire::put_u32(out, static_cast<std::uint32_t>(m.mutations.size()));
  for (const auto& mutation : m.mutations) wire::put_mutation(out, mutation);
  return out;
}

WriteBatchRequest decode_write_batch_request(const std::string& body) {
  wire::Cursor c(body);
  WriteBatchRequest m;
  m.table = wire::get_string(c);
  m.writer_id = wire::get_string(c);
  m.first_seq = wire::get_u64(c);
  const std::uint32_t n = get_count(c, 4);
  // Mutation i is stream seq first_seq + i, and applying it moves the
  // stream's mark to seq + 1: a range that wraps past 2^64 would reset
  // the mark and re-apply the stream.
  if (n > std::numeric_limits<std::uint64_t>::max() - m.first_seq) {
    throw wire::WireError("wire: write batch sequence range wraps");
  }
  m.mutations.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.mutations.push_back(wire::get_mutation(c));
  }
  c.expect_end();
  return m;
}

std::string encode(const WriteBatchResponse& m) {
  std::string out;
  wire::put_u32(out, m.applied);
  wire::put_u32(out, m.skipped);
  return out;
}

WriteBatchResponse decode_write_batch_response(const std::string& body) {
  wire::Cursor c(body);
  WriteBatchResponse m;
  m.applied = wire::get_u32(c);
  m.skipped = wire::get_u32(c);
  c.expect_end();
  return m;
}

// ---- scans --------------------------------------------------------------

std::string encode(const ScanOpenRequest& m) {
  std::string out;
  wire::put_string(out, m.table);
  wire::put_range(out, m.range);
  wire::put_u32(out, m.batch_cells);
  wire::put_u8(out, m.has_resume ? 1 : 0);
  if (m.has_resume) wire::put_key(out, m.resume_after);
  return out;
}

ScanOpenRequest decode_scan_open_request(const std::string& body) {
  wire::Cursor c(body);
  ScanOpenRequest m;
  m.table = wire::get_string(c);
  m.range = wire::get_range(c);
  m.batch_cells = wire::get_u32(c);
  m.has_resume = get_bool(c);
  if (m.has_resume) m.resume_after = wire::get_key(c);
  c.expect_end();
  return m;
}

std::string encode(const ScanOpenResponse& m) {
  std::string out;
  wire::put_u64(out, m.lease_id);
  return out;
}

ScanOpenResponse decode_scan_open_response(const std::string& body) {
  wire::Cursor c(body);
  ScanOpenResponse m;
  m.lease_id = wire::get_u64(c);
  c.expect_end();
  return m;
}

std::string encode(const ScanContinueRequest& m) {
  std::string out;
  wire::put_u64(out, m.lease_id);
  return out;
}

ScanContinueRequest decode_scan_continue_request(const std::string& body) {
  wire::Cursor c(body);
  ScanContinueRequest m;
  m.lease_id = wire::get_u64(c);
  c.expect_end();
  return m;
}

std::string encode(const ScanContinueResponse& m) {
  std::string out;
  wire::put_u32(out, static_cast<std::uint32_t>(m.cells.size()));
  for (const auto& cell : m.cells) wire::put_cell(out, cell);
  wire::put_u8(out, m.done ? 1 : 0);
  return out;
}

ScanContinueResponse decode_scan_continue_response(const std::string& body) {
  wire::Cursor c(body);
  ScanContinueResponse m;
  const std::uint32_t n = get_count(c, 4);
  m.cells.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.cells.push_back(wire::get_cell(c));
  m.done = get_bool(c);
  c.expect_end();
  return m;
}

std::string encode(const ScanCloseRequest& m) {
  std::string out;
  wire::put_u64(out, m.lease_id);
  return out;
}

ScanCloseRequest decode_scan_close_request(const std::string& body) {
  wire::Cursor c(body);
  ScanCloseRequest m;
  m.lease_id = wire::get_u64(c);
  c.expect_end();
  return m;
}

// ---- tablet map ---------------------------------------------------------

std::string encode(const TabletLookupRequest& m) {
  std::string out;
  wire::put_u8(out, m.has_table ? 1 : 0);
  if (m.has_table) wire::put_string(out, m.table);
  return out;
}

TabletLookupRequest decode_tablet_lookup_request(const std::string& body) {
  wire::Cursor c(body);
  TabletLookupRequest m;
  m.has_table = get_bool(c);
  if (m.has_table) m.table = wire::get_string(c);
  c.expect_end();
  return m;
}

std::string encode(const TabletLookupResponse& m) {
  std::string out;
  wire::put_u32(out, m.server_index);
  wire::put_u32(out, m.server_count);
  wire::put_u32(out, static_cast<std::uint32_t>(m.boundaries.size()));
  for (const auto& b : m.boundaries) wire::put_string(out, b);
  wire::put_u8(out, m.table_exists ? 1 : 0);
  return out;
}

TabletLookupResponse decode_tablet_lookup_response(const std::string& body) {
  wire::Cursor c(body);
  TabletLookupResponse m;
  m.server_index = wire::get_u32(c);
  m.server_count = wire::get_u32(c);
  const std::uint32_t n = get_count(c, 4);
  m.boundaries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.boundaries.push_back(wire::get_string(c));
  m.table_exists = get_bool(c);
  c.expect_end();
  return m;
}

// ---- table control ------------------------------------------------------

std::string encode(const EnsureTableRequest& m) {
  std::string out;
  wire::put_string(out, m.table);
  wire::put_string(out, m.preset);
  return out;
}

EnsureTableRequest decode_ensure_table_request(const std::string& body) {
  wire::Cursor c(body);
  EnsureTableRequest m;
  m.table = wire::get_string(c);
  m.preset = wire::get_string(c);
  c.expect_end();
  return m;
}

std::string encode(const CompactTableRequest& m) {
  std::string out;
  wire::put_string(out, m.table);
  return out;
}

CompactTableRequest decode_compact_table_request(const std::string& body) {
  wire::Cursor c(body);
  CompactTableRequest m;
  m.table = wire::get_string(c);
  c.expect_end();
  return m;
}

// ---- status -------------------------------------------------------------

std::string encode(const StatusResponse& m) {
  std::string out;
  wire::put_u32(out, m.server_index);
  wire::put_u32(out, static_cast<std::uint32_t>(m.tables.size()));
  for (const auto& t : m.tables) wire::put_string(out, t);
  wire::put_u32(out, m.live_leases);
  wire::put_u64(out, m.writes_applied);
  wire::put_u64(out, m.writes_skipped);
  wire::put_u64(out, m.cells_scanned);
  return out;
}

StatusResponse decode_status_response(const std::string& body) {
  wire::Cursor c(body);
  StatusResponse m;
  m.server_index = wire::get_u32(c);
  const std::uint32_t n = get_count(c, 4);
  m.tables.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.tables.push_back(wire::get_string(c));
  m.live_leases = wire::get_u32(c);
  m.writes_applied = wire::get_u64(c);
  m.writes_skipped = wire::get_u64(c);
  m.cells_scanned = wire::get_u64(c);
  c.expect_end();
  return m;
}

}  // namespace graphulo::distributed::proto
