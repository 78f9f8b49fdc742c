#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"

namespace rd::serve {

/// The rdd transport: accepts stream connections on a Unix-domain socket
/// and/or a TCP loopback port and speaks the length-prefixed JSON frame
/// protocol over them. Each connection gets a reader thread that decodes
/// requests and executes them via ThreadPool::post — at pool concurrency 1
/// that degenerates to inline execution, so a single-threaded daemon
/// answers requests strictly serially (the determinism baseline the tests
/// compare multi-threaded runs against). Frames on one connection are
/// answered in order; connections are independent.
///
/// Lifecycle: construct (binds and listens; throws std::runtime_error on
/// bind failure), `run()` until a `shutdown` request or `request_stop()`,
/// destructor unlinks the Unix socket path.
class Server {
 public:
  struct Options {
    std::string unix_path;  // empty = no Unix listener
    int tcp_port = -1;      // -1 = no TCP listener; 0 = ephemeral port
  };

  Server(Service& service, const Options& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop; blocks until stopped. Each time the loop wakes it joins
  /// the threads of the connections that ended since, so a long-lived
  /// daemon holds one thread (and its stack) per open connection, not per
  /// connection ever served. Joins every connection thread before
  /// returning, so all in-flight requests finish their replies.
  /// EINTR from poll(2) is retried; any other poll failure tears down the
  /// same way and then throws std::runtime_error, so the daemon exits
  /// nonzero instead of pretending a clean shutdown happened.
  void run();

  /// Stop the accept loop and wake blocked connection readers. Safe from
  /// any thread, including a connection thread mid-request.
  void request_stop();

  /// The TCP port actually bound (after an ephemeral bind), or -1.
  int tcp_port() const noexcept { return tcp_port_; }

 private:
  void handle_connection(int fd);
  void close_listeners();
  /// Join and drop the threads listed in `finished_`.
  void reap_finished();

  Service& service_;
  std::string unix_path_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int stop_pipe_[2] = {-1, -1};

  std::mutex mutex_;
  std::vector<std::thread> connections_;  // not yet joined
  /// Threads in `connections_` whose connection has ended: each adds its
  /// own id as it ends, and the accept loop joins it.
  std::vector<std::thread::id> finished_;
  std::vector<int> live_fds_;
  bool stopping_ = false;
};

}  // namespace rd::serve
