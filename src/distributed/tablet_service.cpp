#include "distributed/tablet_service.hpp"

#include <algorithm>

#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "nosql/codec.hpp"
#include "util/log.hpp"

namespace graphulo::distributed {

using rpc::RpcServer;
using rpc::Status;
using rpc::Verb;

namespace {

bool deadline_passed(
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  return deadline && std::chrono::steady_clock::now() > *deadline;
}

}  // namespace

TabletService::TabletService(nosql::Instance& db,
                             std::vector<std::string> boundaries,
                             std::uint32_t server_index,
                             TabletServiceOptions options)
    : db_(db),
      boundaries_(std::move(boundaries)),
      server_index_(server_index),
      options_(options) {
  if (server_index_ > boundaries_.size()) {
    throw std::invalid_argument(
        "TabletService: server_index past the last boundary");
  }
  sweeper_ = std::thread([this] { sweep_loop(); });
}

TabletService::~TabletService() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  sweep_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
}

nosql::Range TabletService::owned_range() const {
  const std::string low =
      server_index_ == 0 ? std::string() : boundaries_[server_index_ - 1];
  const std::string high = server_index_ == boundaries_.size()
                               ? std::string()
                               : boundaries_[server_index_];
  return nosql::Range::half_open_row_range(low, high);
}

RpcServer::Response TabletService::handle(
    Verb verb, const std::string& body,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  switch (verb) {
    case Verb::kPing:
      return {Status::kOk, body};
    case Verb::kWriteBatch:
      return handle_write_batch(body, deadline);
    case Verb::kScanOpen:
      return handle_scan_open(body, deadline);
    case Verb::kScanContinue:
      return handle_scan_continue(body, deadline);
    case Verb::kScanClose:
      return handle_scan_close(body);
    case Verb::kTabletLookup:
      return handle_tablet_lookup(body);
    case Verb::kEnsureTable:
      return handle_ensure_table(body);
    case Verb::kCompactTable:
      return handle_compact_table(body);
    case Verb::kStatus:
      return handle_status();
  }
  return {Status::kBadRequest, "unhandled verb"};
}

std::shared_ptr<nosql::AdmissionSession> TabletService::write_session_for(
    const std::string& table, const nosql::AdmissionController& controller) {
  std::lock_guard lock(mutex_);
  auto& session = write_sessions_[table];
  if (!session) session = controller.make_session();
  return session;
}

RpcServer::Response TabletService::handle_write_batch(
    const std::string& body,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  const auto req = proto::decode_write_batch_request(body);
  if (!db_.table_exists(req.table)) {
    return {Status::kNoSuchTable, "no such table: " + req.table};
  }
  // Admission is charged for the whole batch up front: a shed batch is
  // rejected before any of it applies, and the client's resend dedups
  // cleanly either way.
  if (const auto controller = db_.admission(req.table)) {
    controller->admit_write(*write_session_for(req.table, *controller),
                            req.mutations.size());
  }

  // Mutation first_seq + i of the (writer_id, table) stream: the table
  // skips it below the stream's high-water mark, so a resent batch
  // (lost ack, or a resend racing the original on another connection)
  // applies each mutation once.
  const nosql::Range owned = owned_range();
  proto::WriteBatchResponse resp;
  for (std::size_t i = 0; i < req.mutations.size(); ++i) {
    if (deadline_passed(deadline)) {
      throw nosql::DeadlineExceeded(
          "write batch exceeded its deadline after " +
          std::to_string(resp.applied) + " mutations");
    }
    const auto& m = req.mutations[i];
    if (!owned.contains(nosql::min_key_for_row(m.row()))) {
      throw nosql::wire::WireError("mutation row '" + m.row() +
                                   "' routed to the wrong server");
    }
    if (db_.apply(req.table, m, req.writer_id, req.first_seq + i)) {
      ++resp.applied;
      ++writes_applied_;
    } else {
      ++resp.skipped;
      ++writes_skipped_;
    }
  }
  // Durable ack: the WAL holds everything this batch applied before
  // the client sees kOk.
  if (resp.applied > 0 && options_.sync_wal_on_write) db_.sync_wal();
  return {Status::kOk, proto::encode(resp)};
}

RpcServer::Response TabletService::handle_scan_open(
    const std::string& body,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  const auto req = proto::decode_scan_open_request(body);
  if (!db_.table_exists(req.table)) {
    return {Status::kNoSuchTable, "no such table: " + req.table};
  }
  // Clip to the rows this server owns — the client clips too, but a
  // defensive server never ships another server's rows.
  nosql::Range range = req.range.intersect(owned_range());
  if (req.has_resume) {
    // Resume strictly after the last delivered key.
    nosql::Range after;
    after.has_start = true;
    after.start = req.resume_after;
    after.start_inclusive = false;
    range = range.intersect(after);
  }

  auto lease = std::make_unique<Lease>();
  lease->table = req.table;
  // The scan slot is held for the lease's whole life (RAII ticket), so
  // max_inflight_scans bounds concurrent remote scans exactly like
  // local ones; a shed open throws OverloadedError -> kOverloaded.
  if (const auto controller = db_.admission(req.table)) {
    lease->ticket = controller->admit_scan(nullptr, deadline);
  }
  lease->snapshot = db_.open_snapshot(req.table);
  lease->iter = range.is_empty()
                    ? nullptr
                    : core::open_table_scan(*lease->snapshot, range);
  lease->batch_cells =
      req.batch_cells > 0 ? req.batch_cells : options_.scan_batch_cells;
  lease->expires_at = std::chrono::steady_clock::now() + options_.lease_ttl;

  proto::ScanOpenResponse resp;
  resp.lease_id = next_lease_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    leases_[resp.lease_id] = std::move(lease);
  }
  return {Status::kOk, proto::encode(resp)};
}

RpcServer::Response TabletService::handle_scan_continue(
    const std::string& body,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  const auto req = proto::decode_scan_continue_request(body);
  if (deadline_passed(deadline)) {
    throw nosql::DeadlineExceeded("scan continue arrived past its deadline");
  }
  // Check the lease OUT of the table while draining, so continues on
  // other leases never serialize on this scan.
  std::unique_ptr<Lease> lease;
  {
    std::lock_guard lock(mutex_);
    auto it = leases_.find(req.lease_id);
    if (it == leases_.end() ||
        std::chrono::steady_clock::now() > it->second->expires_at) {
      if (it != leases_.end()) leases_.erase(it);
      throw rpc::LeaseExpired("scan lease " + std::to_string(req.lease_id) +
                              " expired or unknown; re-open to resume");
    }
    lease = std::move(it->second);
    leases_.erase(it);
  }

  proto::ScanContinueResponse resp;
  nosql::CellBlock block;
  if (lease->iter != nullptr) {
    lease->iter->next_block(block, lease->batch_cells);
    resp.cells.reserve(block.size());
    for (const auto& cell : block) resp.cells.push_back(cell);
    resp.done = !lease->iter->has_top();
  } else {
    resp.done = true;  // empty effective range
  }
  cells_scanned_ += resp.cells.size();

  if (!resp.done) {
    lease->expires_at = std::chrono::steady_clock::now() + options_.lease_ttl;
    std::lock_guard lock(mutex_);
    leases_[req.lease_id] = std::move(lease);
  }
  // done: the lease (snapshot pin + admission ticket) releases here.
  return {Status::kOk, proto::encode(resp)};
}

RpcServer::Response TabletService::handle_scan_close(const std::string& body) {
  const auto req = proto::decode_scan_close_request(body);
  std::lock_guard lock(mutex_);
  leases_.erase(req.lease_id);  // closing an unknown lease is a no-op
  return {Status::kOk, ""};
}

RpcServer::Response TabletService::handle_tablet_lookup(
    const std::string& body) {
  const auto req = proto::decode_tablet_lookup_request(body);
  proto::TabletLookupResponse resp;
  resp.server_index = server_index_;
  resp.server_count = static_cast<std::uint32_t>(boundaries_.size() + 1);
  resp.boundaries = boundaries_;
  resp.table_exists = req.has_table && db_.table_exists(req.table);
  return {Status::kOk, proto::encode(resp)};
}

RpcServer::Response TabletService::handle_ensure_table(
    const std::string& body) {
  const auto req = proto::decode_ensure_table_request(body);
  if (req.preset != "default" && req.preset != "sum") {
    throw nosql::wire::WireError("unknown table preset: " + req.preset);
  }
  if (db_.table_exists(req.table)) {
    if (req.preset == "sum" &&
        !core::is_sum_table_config(*db_.table_config(req.table))) {
      return {Status::kBadRequest,
              "table " + req.table + " exists without the sum combiner"};
    }
    return {Status::kOk, ""};
  }
  try {
    if (req.preset == "sum") {
      db_.create_table(req.table, core::sum_table_config());
    } else {
      db_.create_table(req.table);
    }
  } catch (const std::exception&) {
    // Lost a create race with a concurrent ensure; existing is fine.
    if (!db_.table_exists(req.table)) throw;
    return {Status::kOk, ""};
  }
  if (on_create_) on_create_(req.table, req.preset);
  return {Status::kOk, ""};
}

RpcServer::Response TabletService::handle_compact_table(
    const std::string& body) {
  const auto req = proto::decode_compact_table_request(body);
  if (!db_.table_exists(req.table)) {
    return {Status::kNoSuchTable, "no such table: " + req.table};
  }
  db_.compact(req.table);
  return {Status::kOk, ""};
}

RpcServer::Response TabletService::handle_status() {
  proto::StatusResponse resp;
  resp.server_index = server_index_;
  resp.tables = db_.table_names();
  {
    std::lock_guard lock(mutex_);
    resp.live_leases = static_cast<std::uint32_t>(leases_.size());
  }
  resp.writes_applied = writes_applied_.load(std::memory_order_relaxed);
  resp.writes_skipped = writes_skipped_.load(std::memory_order_relaxed);
  resp.cells_scanned = cells_scanned_.load(std::memory_order_relaxed);
  return {Status::kOk, proto::encode(resp)};
}

std::size_t TabletService::live_leases() const {
  std::lock_guard lock(mutex_);
  return leases_.size();
}

void TabletService::expire_leases_now() {
  std::lock_guard lock(mutex_);
  leases_.clear();
}

void TabletService::sweep_loop() {
  const auto interval =
      std::max(options_.lease_ttl / 4, std::chrono::milliseconds(50));
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    sweep_cv_.wait_for(lock, interval, [this] { return stopping_; });
    if (stopping_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto it = leases_.begin(); it != leases_.end();) {
      if (now > it->second->expires_at) {
        GRAPHULO_DEBUG << "reaping expired scan lease " << it->first;
        it = leases_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace graphulo::distributed
