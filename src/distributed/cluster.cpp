#include "distributed/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace graphulo::distributed {

namespace {

obs::Counter& scan_reopens_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "distributed.scan.reopens.total",
      "Remote scans re-opened after a lease expiry or connection drop");
  return c;
}

obs::Counter& write_dedup_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "distributed.write.deduped.total",
      "Mutations a server skipped as already applied (resent batches)");
  return c;
}

/// Remote scan across every owning server, in boundary order. Each
/// server segment is drained through a leased scan; a lease expiry or
/// transport failure re-opens the segment's scan strictly after the
/// last delivered key, so cells are delivered exactly once in global
/// key order no matter how many times the stream is interrupted.
class ClusterScanIterator : public nosql::SortedKVIterator {
 public:
  ClusterScanIterator(Cluster& cluster, std::string table,
                      const nosql::Range& range)
      : cluster_(cluster), table_(std::move(table)) {
    seek(range);
  }

  ~ClusterScanIterator() override { close_lease(); }

  void seek(const nosql::Range& range) override {
    close_lease();
    segments_.clear();
    for (std::size_t s = 0; s < cluster_.num_servers(); ++s) {
      const nosql::Range clipped = range.intersect(cluster_.server_range(s));
      if (!clipped.is_empty()) segments_.emplace_back(s, clipped);
    }
    segment_ = 0;
    buffer_.clear();
    pos_ = 0;
    last_key_.reset();
    fill();
  }

  bool has_top() const override { return pos_ < buffer_.size(); }
  const nosql::Key& top_key() const override { return buffer_[pos_].key; }
  const nosql::Value& top_value() const override { return buffer_[pos_].value; }

  void next() override {
    ++pos_;
    if (pos_ >= buffer_.size()) {
      buffer_.clear();
      pos_ = 0;
      fill();
    }
  }

  std::size_t next_block(nosql::CellBlock& out, std::size_t max) override {
    std::size_t appended = 0;
    while (appended < max && has_top()) {
      // Bulk-copy the buffered run before refilling.
      const std::size_t take = std::min(max - appended, buffer_.size() - pos_);
      for (std::size_t i = 0; i < take; ++i, ++pos_) {
        out.append(buffer_[pos_].key, buffer_[pos_].value);
      }
      appended += take;
      if (pos_ >= buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
        fill();
      }
    }
    return appended;
  }

 private:
  void close_lease() noexcept {
    if (lease_id_ == 0) return;
    try {
      proto::ScanCloseRequest req;
      req.lease_id = lease_id_;
      cluster_.call_once(segments_[segment_].first, rpc::Verb::kScanClose,
                         proto::encode(req));
    } catch (const std::exception&) {
      // Best effort; the server's TTL sweeper reaps it.
    }
    lease_id_ = 0;
  }

  void open_lease() {
    proto::ScanOpenRequest req;
    req.table = table_;
    req.range = segments_[segment_].second;
    req.batch_cells = cluster_.options().scan_batch_cells;
    if (last_key_) {
      req.has_resume = true;
      req.resume_after = *last_key_;
    }
    // call() retries transient opens (connection refused while a server
    // restarts, admission shed) with backoff.
    const std::string body = cluster_.call(
        segments_[segment_].first, rpc::Verb::kScanOpen, proto::encode(req));
    lease_id_ = proto::decode_scan_open_response(body).lease_id;
  }

  /// Refills the buffer from the current segment, advancing to later
  /// segments as streams drain. Leaves the buffer empty only when every
  /// segment is exhausted.
  void fill() {
    int failures = 0;
    while (buffer_.empty() && segment_ < segments_.size()) {
      try {
        if (lease_id_ == 0) open_lease();
        proto::ScanContinueRequest req;
        req.lease_id = lease_id_;
        const std::string body =
            cluster_.call_once(segments_[segment_].first,
                               rpc::Verb::kScanContinue, proto::encode(req));
        auto resp = proto::decode_scan_continue_response(body);
        failures = 0;
        if (!resp.cells.empty()) {
          last_key_ = resp.cells.back().key;
          buffer_ = std::move(resp.cells);
          pos_ = 0;
        }
        if (resp.done) {
          // Server closed the lease with the final batch.
          lease_id_ = 0;
          last_key_.reset();
          ++segment_;
        }
      } catch (const util::TransientError& e) {
        // Lease expired, connection dropped, server restarted or shed
        // us: re-open this segment's scan after the last delivered key.
        lease_id_ = 0;
        if (++failures > cluster_.options().retry.max_attempts) throw;
        scan_reopens_counter().inc();
        GRAPHULO_DEBUG << "remote scan of " << table_ << " re-opening (" <<
            e.what() << ")";
      }
    }
  }

  Cluster& cluster_;
  std::string table_;
  /// (server index, clipped range) per owning server, in row order.
  std::vector<std::pair<std::size_t, nosql::Range>> segments_;
  std::size_t segment_ = 0;
  std::uint64_t lease_id_ = 0;
  std::vector<nosql::Cell> buffer_;
  std::size_t pos_ = 0;
  std::optional<nosql::Key> last_key_;
};

/// Exactly-once buffered writer: mutations route to the owning server
/// and ship as sequence-numbered batches of one (writer_id, table)
/// stream per server. The sequence number of a mutation is fixed when
/// it is buffered, so a batch resent after a lost ack (or a flush
/// resumed after an exhausted retry) carries the same numbers and the
/// server's high-water mark dedups the already-applied prefix.
class ClusterBatchWriter : public nosql::MutationSink {
 public:
  ClusterBatchWriter(Cluster& cluster, std::string table,
                     std::string writer_id)
      : cluster_(cluster),
        table_(std::move(table)),
        writer_id_(std::move(writer_id)),
        streams_(cluster.num_servers()) {}

  ~ClusterBatchWriter() override {
    if (closed_) return;
    try {
      flush();
    } catch (const std::exception& e) {
      GRAPHULO_WARN << "ClusterBatchWriter: final flush failed: " << e.what();
    }
  }

  void add_mutation(nosql::Mutation mutation) override {
    const std::size_t owner = cluster_.owner_of_row(mutation.row());
    buffered_bytes_ += mutation.estimated_bytes();
    streams_[owner].buffer.push_back(std::move(mutation));
    if (buffered_bytes_ > cluster_.options().writer_buffer_bytes) flush();
  }

  void flush() override {
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      Stream& stream = streams_[s];
      while (!stream.buffer.empty()) {
        // Bound each frame: ship a prefix chunk of the buffer, advance
        // the acked sequence, repeat. A chunk that fails after retries
        // leaves the buffer holding it (and everything after), so a
        // later flush resumes the stream where it stopped.
        const std::size_t chunk = chunk_size(stream.buffer);
        proto::WriteBatchRequest req;
        req.table = table_;
        req.writer_id = writer_id_;
        req.first_seq = stream.acked_seq;
        req.mutations.assign(stream.buffer.begin(),
                             stream.buffer.begin() +
                                 static_cast<std::ptrdiff_t>(chunk));
        std::string body;
        try {
          body = cluster_.call(s, rpc::Verb::kWriteBatch, proto::encode(req));
        } catch (const std::exception& e) {
          last_error_ = e.what();
          last_error_kind_ = nosql::classify_write_error(e);
          throw;
        }
        const auto resp = proto::decode_write_batch_response(body);
        if (resp.skipped > 0) write_dedup_counter().inc(resp.skipped);
        stream.acked_seq += chunk;
        written_ += chunk;
        for (std::size_t i = 0; i < chunk; ++i) {
          buffered_bytes_ -= stream.buffer[i].estimated_bytes();
        }
        stream.buffer.erase(stream.buffer.begin(),
                            stream.buffer.begin() +
                                static_cast<std::ptrdiff_t>(chunk));
      }
    }
  }

  void close() override {
    if (closed_) return;
    closed_ = true;  // even if the flush throws: the caller sees it here
    flush();
  }

  void abandon() noexcept override {
    for (auto& stream : streams_) stream.buffer.clear();
    buffered_bytes_ = 0;
    closed_ = true;
  }

  std::size_t mutations_written() const noexcept override { return written_; }

  const std::optional<std::string>& last_error() const noexcept override {
    return last_error_;
  }

  ErrorKind last_error_kind() const noexcept override {
    return last_error_kind_;
  }

 private:
  struct Stream {
    std::vector<nosql::Mutation> buffer;  ///< unacked suffix of the stream
    std::uint64_t acked_seq = 0;          ///< sequence numbers below are acked
  };

  /// Mutations of the leading chunk that fit one bounded frame.
  std::size_t chunk_size(const std::vector<nosql::Mutation>& buffer) const {
    // Stay well under the frame limit: estimated_bytes underestimates
    // the wire form a little, so cap the chunk at a quarter of it.
    const std::size_t budget =
        cluster_.options().client.max_frame_bytes / 4;
    std::size_t bytes = 0;
    std::size_t n = 0;
    for (const auto& m : buffer) {
      bytes += m.estimated_bytes();
      if (n > 0 && bytes > budget) break;
      ++n;
    }
    return n;
  }

  Cluster& cluster_;
  std::string table_;
  std::string writer_id_;
  std::vector<Stream> streams_;  ///< one dedup stream per server
  std::size_t buffered_bytes_ = 0;
  std::size_t written_ = 0;
  bool closed_ = false;
  std::optional<std::string> last_error_;
  ErrorKind last_error_kind_ = ErrorKind::kNone;
};

}  // namespace

Cluster::Cluster(std::vector<Endpoint> endpoints,
                 std::vector<std::string> boundaries, ClusterOptions options)
    : endpoints_(std::move(endpoints)),
      boundaries_(std::move(boundaries)),
      options_(options) {
  if (endpoints_.empty()) {
    throw std::invalid_argument("Cluster: no endpoints");
  }
  if (boundaries_.size() + 1 != endpoints_.size()) {
    throw std::invalid_argument(
        "Cluster: need exactly one interior boundary per server gap");
  }
  if (!std::is_sorted(boundaries_.begin(), boundaries_.end())) {
    throw std::invalid_argument("Cluster: boundaries must be sorted");
  }
  conns_.reserve(endpoints_.size());
  for (const auto& ep : endpoints_) {
    auto conn = std::make_unique<Conn>();
    conn->client =
        std::make_unique<rpc::RpcClient>(ep.host, ep.port, options_.client);
    conns_.push_back(std::move(conn));
  }
}

std::size_t Cluster::owner_of_row(const std::string& row) const {
  // Number of boundaries <= row: rows below boundaries_[0] land on
  // server 0, rows in [boundaries_[i-1], boundaries_[i]) on server i.
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), row);
  return static_cast<std::size_t>(it - boundaries_.begin());
}

nosql::Range Cluster::server_range(std::size_t i) const {
  const std::string low = i == 0 ? std::string() : boundaries_[i - 1];
  const std::string high =
      i == boundaries_.size() ? std::string() : boundaries_[i];
  return nosql::Range::half_open_row_range(low, high);
}

std::string Cluster::call(std::size_t server, rpc::Verb verb,
                          const std::string& body) {
  Conn& conn = *conns_[server];
  std::lock_guard lock(conn.mutex);
  return util::with_retries("Cluster::call", options_.retry, [&] {
    return conn.client->call(verb, body);
  });
}

std::string Cluster::call_once(std::size_t server, rpc::Verb verb,
                               const std::string& body) {
  Conn& conn = *conns_[server];
  std::lock_guard lock(conn.mutex);
  return conn.client->call(verb, body);
}

void Cluster::ping_all() {
  for (std::size_t s = 0; s < num_servers(); ++s) {
    call(s, rpc::Verb::kPing, "");
  }
}

void Cluster::ensure_table(const std::string& table, bool sum_combiner) {
  proto::EnsureTableRequest req;
  req.table = table;
  req.preset = sum_combiner ? "sum" : "default";
  const std::string body = proto::encode(req);
  for (std::size_t s = 0; s < num_servers(); ++s) {
    call(s, rpc::Verb::kEnsureTable, body);
  }
}

void Cluster::compact(const std::string& table) {
  proto::CompactTableRequest req;
  req.table = table;
  const std::string body = proto::encode(req);
  for (std::size_t s = 0; s < num_servers(); ++s) {
    call(s, rpc::Verb::kCompactTable, body);
  }
}

bool Cluster::table_exists(const std::string& table) {
  proto::TabletLookupRequest req;
  req.has_table = true;
  req.table = table;
  const std::string body =
      call(0, rpc::Verb::kTabletLookup, proto::encode(req));
  return proto::decode_tablet_lookup_response(body).table_exists;
}

proto::StatusResponse Cluster::status(std::size_t server) {
  return proto::decode_status_response(call(server, rpc::Verb::kStatus, ""));
}

nosql::IterPtr Cluster::scan(const std::string& table,
                             const nosql::Range& range) {
  return std::make_unique<ClusterScanIterator>(*this, table, range);
}

std::unique_ptr<nosql::MutationSink> Cluster::writer(
    const std::string& table, const std::string& writer_id) {
  return std::make_unique<ClusterBatchWriter>(*this, table, writer_id);
}

// ---- ClusterDataPlane ---------------------------------------------------

namespace {

class RemoteReadView : public core::TableMultDataPlane::ReadView {
 public:
  explicit RemoteReadView(Cluster& cluster) : cluster_(cluster) {}

  nosql::IterPtr open_scan(const std::string& table,
                           const nosql::Range& range) override {
    return cluster_.scan(table, range);
  }

 private:
  Cluster& cluster_;
};

}  // namespace

bool ClusterDataPlane::table_exists(const std::string& table) {
  return cluster_.table_exists(table);
}

void ClusterDataPlane::ensure_table(const std::string& table,
                                    bool sum_combiner) {
  cluster_.ensure_table(table, sum_combiner);
}

std::unique_ptr<core::TableMultDataPlane::ReadView>
ClusterDataPlane::open_read_view(const std::vector<std::string>& tables,
                                 bool snapshot_isolation) {
  // Per-scan consistency only (each remote scan pins per-server
  // snapshots for its lease's life); there is no cross-scan snapshot
  // handle over the wire. See the class comment.
  (void)tables;
  (void)snapshot_isolation;
  return std::make_unique<RemoteReadView>(cluster_);
}

std::unique_ptr<core::TableMultDataPlane::WriteSession>
ClusterDataPlane::open_write_session(const std::string& table) {
  return core::stream_write_session(
      [&cluster = cluster_, table](const std::string& id) {
        return cluster.writer(table, id);
      });
}

std::vector<std::string> ClusterDataPlane::partition_rows(
    const std::string& table, std::size_t pieces) {
  (void)table;
  (void)pieces;
  return cluster_.boundaries();
}

void ClusterDataPlane::compact(const std::string& table) {
  cluster_.compact(table);
}

util::RetryPolicy ClusterDataPlane::retry_policy() const {
  return cluster_.options().retry;
}

core::TableMultStats table_mult(Cluster& cluster, const std::string& table_a,
                                const std::string& table_b,
                                const std::string& table_c,
                                const core::TableMultOptions& options) {
  ClusterDataPlane plane(cluster);
  core::TableMultOptions resolved = options;
  // Default the fan-out to the fleet size, not this client's core
  // count: partitioning cuts at the server boundaries, so fewer workers
  // than servers would leave servers idle (and a 1-core client would
  // collapse the whole multiply to one serial partition).
  if (resolved.num_workers == 0) {
    resolved.num_workers =
        std::max<std::size_t>(cluster.num_servers(),
                              std::thread::hardware_concurrency());
  }
  return core::table_mult(plane, table_a, table_b, table_c, resolved);
}

}  // namespace graphulo::distributed
