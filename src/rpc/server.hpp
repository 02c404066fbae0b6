#pragma once
// RpcServer: accepts connections on a loopback TCP port and runs one
// worker thread per connection, dispatching each framed request to a
// caller-supplied handler. The transport owns framing, request ids,
// deadline propagation, exception→status mapping, and per-verb
// observability; the handler (distributed::TabletService) owns the verb
// semantics.
//
// Threading: one accept thread plus one thread per live connection.
// stop() shuts down the listener and every connection socket, which
// wakes the blocked poll()s, then joins all threads. A connection
// thread only shuts its own socket down when it ends; the fd is closed
// after the thread is joined (by stop(), or by the accept loop reaping
// finished connections), so no fd is closed while another thread may
// still use it, and stop() never shuts down a reused fd number. A server set
// draining() answers every request with kShuttingDown (the daemon uses
// this while it checkpoints on SIGTERM).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rpc/wire.hpp"

namespace graphulo::rpc {

struct RpcServerOptions {
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class RpcServer {
 public:
  /// What a handler returns: a status plus either a result body (kOk)
  /// or an error message.
  struct Response {
    Status status = Status::kOk;
    std::string body;
  };

  /// Invoked once per request, possibly concurrently from different
  /// connection threads. `deadline` is the client's propagated
  /// per-call deadline (nullopt = none); long handlers should check it
  /// cooperatively. Exceptions are mapped to statuses: WireError →
  /// kBadRequest, OverloadedError → kOverloaded, DeadlineExceeded →
  /// kDeadline, LeaseExpired → kNoSuchLease, TransientError →
  /// kTransient, anything else → kFatal.
  using Handler = std::function<Response(
      Verb verb, const std::string& body,
      std::optional<std::chrono::steady_clock::time_point> deadline)>;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; read back via port()) and
  /// starts accepting. Throws ConnectionError if the bind fails.
  RpcServer(std::uint16_t port, Handler handler,
            RpcServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// While true, every request is answered kShuttingDown without
  /// reaching the handler.
  void set_draining(bool draining) noexcept {
    draining_.store(draining, std::memory_order_relaxed);
  }

  /// Stops accepting, severs live connections, joins all threads.
  /// Idempotent; also called by the destructor.
  void stop();

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection* conn);
  Response dispatch(Verb verb, const std::string& body,
                    std::optional<std::chrono::steady_clock::time_point>
                        deadline) noexcept;
  void reap_finished_locked();

  Handler handler_;
  RpcServerOptions options_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace graphulo::rpc
