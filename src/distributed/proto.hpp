#pragma once
// Verb-body message layouts of the distributed mode, shared by both
// ends of the wire: distributed::TabletService decodes requests and
// encodes responses; distributed::Cluster does the reverse. One
// encode/decode pair per message keeps the layouts in a single place
// (and gives the fuzz tests one surface to torture).
//
// All fields use the nosql::wire codecs (fixed-width little-endian
// integers, u32-length-prefixed strings, the Key/Cell/Mutation/Range
// codecs). Decoding is fully bounds-checked and rejects trailing bytes;
// malformed input throws nosql::wire::WireError, which the RPC server
// maps to kBadRequest.

#include <cstdint>
#include <string>
#include <vector>

#include "nosql/key.hpp"
#include "nosql/mutation.hpp"

namespace graphulo::distributed::proto {

// ---- kWriteBatch --------------------------------------------------------

/// One exactly-once write batch: `mutations[i]` carries stream sequence
/// number `first_seq + i` of the (writer_id, table) stream. The table
/// keeps a per-stream high-water mark and skips sequence numbers below
/// it, so a resent batch (connection drop after apply, before the ack)
/// applies each mutation exactly once. Decoding rejects a batch whose
/// sequence range wraps (first_seq + mutation count past 2^64).
struct WriteBatchRequest {
  std::string table;
  std::string writer_id;
  std::uint64_t first_seq = 0;
  std::vector<nosql::Mutation> mutations;
};

struct WriteBatchResponse {
  std::uint32_t applied = 0;  ///< mutations applied by this call
  std::uint32_t skipped = 0;  ///< deduped (seq below the high-water mark)
};

std::string encode(const WriteBatchRequest& m);
WriteBatchRequest decode_write_batch_request(const std::string& body);
std::string encode(const WriteBatchResponse& m);
WriteBatchResponse decode_write_batch_response(const std::string& body);

// ---- kScanOpen / kScanContinue / kScanClose -----------------------------

/// Opens a leased scan over `range` of `table` (the server additionally
/// clips to the rows it owns). With `has_resume`, the scan starts
/// strictly AFTER `resume_after` — how a client resumes after a lease
/// expiry or connection drop without re-reading delivered cells.
struct ScanOpenRequest {
  std::string table;
  nosql::Range range;
  std::uint32_t batch_cells = 0;  ///< cells per continue; 0 = server default
  bool has_resume = false;
  nosql::Key resume_after;
};

struct ScanOpenResponse {
  std::uint64_t lease_id = 0;
};

struct ScanContinueRequest {
  std::uint64_t lease_id = 0;
};

struct ScanContinueResponse {
  std::vector<nosql::Cell> cells;
  bool done = false;  ///< stream exhausted; the server closed the lease
};

struct ScanCloseRequest {
  std::uint64_t lease_id = 0;
};

std::string encode(const ScanOpenRequest& m);
ScanOpenRequest decode_scan_open_request(const std::string& body);
std::string encode(const ScanOpenResponse& m);
ScanOpenResponse decode_scan_open_response(const std::string& body);
std::string encode(const ScanContinueRequest& m);
ScanContinueRequest decode_scan_continue_request(const std::string& body);
std::string encode(const ScanContinueResponse& m);
ScanContinueResponse decode_scan_continue_response(const std::string& body);
std::string encode(const ScanCloseRequest& m);
ScanCloseRequest decode_scan_close_request(const std::string& body);

// ---- kTabletLookup ------------------------------------------------------

/// Asks a server for the cluster's static tablet map (and optionally
/// whether `table` exists there). Row ownership: server i owns rows in
/// [boundaries[i-1], boundaries[i]) with the outer sides unbounded.
struct TabletLookupRequest {
  bool has_table = false;
  std::string table;
};

struct TabletLookupResponse {
  std::uint32_t server_index = 0;
  std::uint32_t server_count = 0;
  std::vector<std::string> boundaries;  ///< server_count - 1 interior rows
  bool table_exists = false;            ///< valid when the request named one
};

std::string encode(const TabletLookupRequest& m);
TabletLookupRequest decode_tablet_lookup_request(const std::string& body);
std::string encode(const TabletLookupResponse& m);
TabletLookupResponse decode_tablet_lookup_response(const std::string& body);

// ---- kEnsureTable / kCompactTable ---------------------------------------

/// Creates `table` if missing, configured by preset: "default" (plain
/// TableConfig) or "sum" (TableMult result sink — versioning off,
/// summing combiner at every scope). Idempotent.
struct EnsureTableRequest {
  std::string table;
  std::string preset = "default";
};

struct CompactTableRequest {
  std::string table;
};

std::string encode(const EnsureTableRequest& m);
EnsureTableRequest decode_ensure_table_request(const std::string& body);
std::string encode(const CompactTableRequest& m);
CompactTableRequest decode_compact_table_request(const std::string& body);

// ---- kStatus ------------------------------------------------------------

struct StatusResponse {
  std::uint32_t server_index = 0;
  std::vector<std::string> tables;
  std::uint32_t live_leases = 0;
  std::uint64_t writes_applied = 0;   ///< mutations applied (dedup excluded)
  std::uint64_t writes_skipped = 0;   ///< mutations deduped
  std::uint64_t cells_scanned = 0;    ///< cells shipped by scan continues
};

std::string encode(const StatusResponse& m);
StatusResponse decode_status_response(const std::string& body);

}  // namespace graphulo::distributed::proto
