#pragma once
// A fleet of forked graphulo_tsd daemons for the remote workload.
//
// Every failure to start a daemon (pipe, fork, exec, or a handshake
// that never arrives) throws instead of exiting, so stack unwinding
// runs the destructors of the daemons already started: each one is
// SIGKILLed and reaped, on every exit path of the caller, including an
// oracle mismatch that returns early. As a second line of defence the
// child asks the kernel to SIGKILL it when the parent dies
// (PR_SET_PDEATHSIG), which covers a bench process that is itself
// killed. That signal follows the forking THREAD, so daemons must be
// spawned from a thread that outlives them (the bench's main thread).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "distributed/cluster.hpp"

namespace perfbench {

namespace distributed = graphulo::distributed;

/// One forked tablet-server daemon (stdout piped for the LISTENING
/// handshake). Hard-killed and reaped at destruction.
class Daemon {
 public:
  Daemon(const std::string& tsd_path, const std::string& data_dir,
         std::uint32_t server_index,
         const std::vector<std::string>& boundaries) {
    std::string joined;
    for (const auto& b : boundaries) {
      if (!joined.empty()) joined += ',';
      joined += b;
    }
    // argv is built before fork: the child of a multithreaded process may
    // only make async-signal-safe calls (no allocation) until it execs.
    const std::string index = std::to_string(server_index);
    std::vector<const char*> argv = {tsd_path.c_str(), "--port",
                                     "0",              "--server-index",
                                     index.c_str(),    "--data-dir",
                                     data_dir.c_str()};
    if (!joined.empty()) {
      argv.push_back("--boundaries");
      argv.push_back(joined.c_str());
    }
    argv.push_back(nullptr);
    int fds[2];  // close-on-exec: later daemons must not inherit them
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      const int err = errno;
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error(std::string("fork: ") + std::strerror(err));
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);  // parent already gone
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[1]);
      ::execv(tsd_path.c_str(), const_cast<char* const*>(argv.data()));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    try {
      port_ = await_handshake();
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  distributed::Endpoint endpoint() const { return {"127.0.0.1", port_}; }

  /// Peak resident set of the daemon (VmHWM), in MiB; 0 when unreadable.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // reported in kB
      }
    }
    return 0.0;
  }

 private:
  static constexpr int kHandshakeTimeoutMs = 20000;

  std::uint16_t await_handshake() {
    const std::string marker = "GRAPHULO_TSD LISTENING port=";
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kHandshakeTimeoutMs);
    std::string out;
    char buf[256];
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
        throw std::runtime_error("graphulo_tsd handshake timed out: " + out);
      }
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        throw std::runtime_error("graphulo_tsd exited before its handshake: " +
                                 out);
      }
      out.append(buf, static_cast<std::size_t>(n));
      const auto at = out.find(marker);
      const auto eol = at == std::string::npos ? at : out.find('\n', at);
      if (eol != std::string::npos) {
        return static_cast<std::uint16_t>(std::stoul(
            out.substr(at + marker.size(), eol - (at + marker.size()))));
      }
    }
  }

  void stop() noexcept {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// `count` daemons sharing one boundary list, each with its own data
/// directory under `base_dir`. Destroying the fleet kills and reaps all
/// of them; a constructor failure unwinds the ones already started.
class Fleet {
 public:
  Fleet(const std::string& tsd_path, const std::string& base_dir,
        std::vector<std::string> boundaries)
      : boundaries_(std::move(boundaries)) {
    for (std::uint32_t i = 0; i <= boundaries_.size(); ++i) {
      daemons_.push_back(std::make_unique<Daemon>(
          tsd_path, base_dir + "/s" + std::to_string(i), i, boundaries_));
    }
  }

  distributed::Cluster cluster() const {
    std::vector<distributed::Endpoint> endpoints;
    for (const auto& d : daemons_) endpoints.push_back(d->endpoint());
    return distributed::Cluster(std::move(endpoints), boundaries_);
  }

  /// Largest daemon peak RSS, MiB.
  double max_peak_rss_mb() const {
    double peak = 0.0;
    for (const auto& d : daemons_) peak = std::max(peak, d->peak_rss_mb());
    return peak;
  }

 private:
  std::vector<std::string> boundaries_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
};

}  // namespace perfbench
