#include "rpc/server.hpp"

#include <array>

#include "nosql/admission.hpp"
#include "nosql/codec.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace graphulo::rpc {

namespace {

struct VerbMetrics {
  obs::Counter* requests = nullptr;
  obs::Counter* errors = nullptr;
  obs::Histogram* latency = nullptr;
};

/// Per-verb handles resolved once; index by the verb's wire value.
VerbMetrics& verb_metrics(Verb verb) {
  static std::array<VerbMetrics, kMaxVerb + 1> handles = [] {
    std::array<VerbMetrics, kMaxVerb + 1> out;
    auto& reg = obs::MetricsRegistry::global();
    for (std::uint8_t v = 0; v <= kMaxVerb; ++v) {
      const obs::Labels labels = {{"verb", verb_name(static_cast<Verb>(v))}};
      out[v].requests = &reg.counter("rpc.server.requests.total",
                                     "RPC requests served, by verb", labels);
      out[v].errors = &reg.counter("rpc.server.errors.total",
                                   "Non-ok RPC responses, by verb", labels);
      out[v].latency = &reg.histogram(
          "rpc.server.latency.seconds", "RPC handler latency, by verb",
          obs::default_latency_buckets(), labels);
    }
    return out;
  }();
  return handles[static_cast<std::uint8_t>(verb)];
}

obs::Counter& bytes_in_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpc.server.bytes.in", "Request payload bytes received");
  return c;
}

obs::Counter& bytes_out_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rpc.server.bytes.out", "Response payload bytes sent");
  return c;
}

obs::Gauge& connections_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "rpc.server.connections", "Live RPC connections");
  return g;
}

}  // namespace

RpcServer::RpcServer(std::uint16_t port, Handler handler,
                     RpcServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  listener_ = Listener::listen_tcp(port);
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

RpcServer::~RpcServer() { stop(); }

void RpcServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard lock(connections_mutex_);
    conns.swap(connections_);
  }
  for (auto& conn : conns) conn->socket.shutdown();
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  listener_.close();
}

void RpcServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void RpcServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Socket sock;
    try {
      sock = listener_.accept();
    } catch (const util::TransientError& e) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      GRAPHULO_DEBUG << "rpc accept failed, continuing: " << e.what();
      continue;
    }
    std::lock_guard lock(connections_mutex_);
    if (stopping_.load(std::memory_order_relaxed)) return;
    reap_finished_locked();
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(sock);
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { serve_connection(raw); });
    connections_.push_back(std::move(conn));
  }
}

RpcServer::Response RpcServer::dispatch(
    Verb verb, const std::string& body,
    std::optional<std::chrono::steady_clock::time_point> deadline) noexcept {
  try {
    return handler_(verb, body, deadline);
  } catch (const nosql::wire::WireError& e) {
    return {Status::kBadRequest, e.what()};
  } catch (const nosql::OverloadedError& e) {
    return {Status::kOverloaded, e.what()};
  } catch (const nosql::DeadlineExceeded& e) {
    return {Status::kDeadline, e.what()};
  } catch (const LeaseExpired& e) {
    return {Status::kNoSuchLease, e.what()};
  } catch (const util::FatalError& e) {
    return {Status::kFatal, e.what()};
  } catch (const util::TransientError& e) {
    return {Status::kTransient, e.what()};
  } catch (const std::exception& e) {
    return {Status::kFatal, e.what()};
  }
}

void RpcServer::serve_connection(Connection* conn) {
  connections_gauge().add(1);
  for (;;) {
    std::string payload;
    try {
      conn->socket.set_deadline(std::nullopt);
      payload = recv_frame(conn->socket, options_.max_frame_bytes);
    } catch (const util::TransientError&) {
      break;  // peer closed, corrupt stream, or stop() severed us
    }
    bytes_in_counter().inc(payload.size());

    ResponseHeader response_header;
    Response response;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    try {
      std::size_t body_offset = 0;
      const RequestHeader request = decode_request(payload, body_offset);
      response_header.verb = request.verb;
      response_header.request_id = request.request_id;
      if (request.deadline_ms > 0) {
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(request.deadline_ms);
      }
      VerbMetrics& metrics = verb_metrics(request.verb);
      metrics.requests->inc();
      if (draining_.load(std::memory_order_relaxed) ||
          stopping_.load(std::memory_order_relaxed)) {
        response = {Status::kShuttingDown, "server shutting down"};
      } else {
        util::Timer timer;
        response = dispatch(request.verb, payload.substr(body_offset),
                            deadline);
        metrics.latency->observe(timer.seconds());
      }
      if (response.status != Status::kOk) metrics.errors->inc();
    } catch (const nosql::wire::WireError& e) {
      // Header itself unparseable; answer with what we can.
      response = {Status::kBadRequest, e.what()};
    }

    response_header.status = response.status;
    const std::string out = encode_response(response_header, response.body);
    try {
      // The response send honors the request's deadline so a stuck
      // client cannot pin this worker forever.
      conn->socket.set_deadline(deadline);
      send_frame(conn->socket, out, options_.max_frame_bytes);
      bytes_out_counter().inc(out.size());
    } catch (const util::TransientError&) {
      break;
    } catch (const std::length_error& e) {
      GRAPHULO_WARN << "rpc response exceeds frame limit, dropping "
                       "connection: "
                    << e.what();
      break;
    }
  }
  // Only shut down: stop() may be shutting this socket down from its
  // thread right now. The fd is closed once this thread is joined.
  conn->socket.shutdown();
  connections_gauge().add(-1);
  conn->done.store(true, std::memory_order_release);
}

}  // namespace graphulo::rpc
