#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <utility>

#include "serve/protocol.h"

namespace rd::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // A stale socket file from a dead daemon blocks bind(2); remove it iff it
  // actually is a socket — never clobber a regular file at that path.
  std::error_code ec;
  if (std::filesystem::is_socket(path, ec)) std::filesystem::remove(path, ec);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("cannot listen on " + path);
  }
  return fd;
}

int listen_tcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, no remote
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("cannot listen on tcp port " + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

Server::Server(Service& service, const Options& options)
    : service_(service), unix_path_(options.unix_path) {
  if (unix_path_.empty() && options.tcp_port < 0) {
    throw std::runtime_error("no listener configured (socket path or port)");
  }
  if (::pipe(stop_pipe_) != 0) throw_errno("pipe");
  if (!unix_path_.empty()) unix_fd_ = listen_unix(unix_path_);
  if (options.tcp_port >= 0) {
    tcp_fd_ = listen_tcp(options.tcp_port, &tcp_port_);
  }
}

Server::~Server() {
  request_stop();
  close_listeners();
  for (const int fd : {stop_pipe_[0], stop_pipe_[1]}) {
    if (fd >= 0) ::close(fd);
  }
  if (!unix_path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(unix_path_, ec);
  }
}

void Server::close_listeners() {
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  unix_fd_ = -1;
  tcp_fd_ = -1;
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  const char byte = 's';
  // Best-effort wakeup; the pipe cannot be full (one byte per lifetime).
  (void)!::write(stop_pipe_[1], &byte, 1);
}

void Server::run() {
  // A poll(2) failure other than EINTR (EBADF, ENOMEM, ...) means the
  // accept loop cannot continue. Remember it, tear down cleanly, and only
  // then throw — a daemon that stops serving must exit nonzero, not
  // silently return as if a shutdown had been requested.
  int poll_errno = 0;
  for (;;) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {stop_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[n++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n++] = {tcp_fd_, POLLIN, 0};
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;  // signals are routine, not fatal
      poll_errno = errno;
      break;
    }
    if (fds[0].revents != 0) break;  // stop requested
    reap_finished();
    for (nfds_t i = 1; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int conn = ::accept(fds[i].fd, nullptr, nullptr);
      if (conn < 0) continue;
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        ::close(conn);
        continue;
      }
      live_fds_.push_back(conn);
      connections_.emplace_back([this, conn] { handle_connection(conn); });
    }
  }
  close_listeners();
  // Wake connection threads blocked in read_frame: shutdown(2) makes their
  // pending reads return 0 (EOF) without yanking the fd out from under
  // them — the thread still owns the close.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& thread : connections_) thread.join();
  connections_.clear();
  finished_.clear();
  if (poll_errno != 0) {
    throw std::runtime_error(std::string("poll: ") +
                             std::strerror(poll_errno));
  }
}

void Server::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto id : finished_) {
      const auto it =
          std::find_if(connections_.begin(), connections_.end(),
                       [id](const std::thread& t) { return t.get_id() == id; });
      std::swap(*it, connections_.back());
      done.push_back(std::move(connections_.back()));
      connections_.pop_back();
    }
    finished_.clear();
  }
  // A listed thread has only its close(2) and return left, so these joins
  // are short.
  for (auto& thread : done) thread.join();
}

void Server::handle_connection(int fd) {
  std::string payload;
  std::string frame_error;
  while (read_frame(fd, payload, &frame_error)) {
    Response response;
    bool stop_after_reply = false;
    const auto request = decode_request(payload);
    if (!request) {
      response.ok = false;
      response.exit_code = 2;
      response.error = "malformed request frame\n";
    } else if (request->op == "shutdown") {
      response = service_.handle(*request);
      stop_after_reply = true;
    } else {
      // Execute on the pool so analysis work shares one scheduler (and a
      // concurrency-1 daemon runs it inline, serially). The reader waits —
      // frames on one connection are answered strictly in order.
      std::promise<Response> promise;
      auto pending = promise.get_future();
      service_.pool().post([&] { promise.set_value(service_.handle(*request)); });
      response = pending.get();
    }
    // A client that hung up without reading (EPIPE) just ends this
    // connection; the daemon and its other connections are unaffected.
    if (!write_frame(fd, encode_response(response))) break;
    if (stop_after_reply) {
      request_stop();
      break;
    }
  }
  // Deregister before closing: once closed, the fd number can be recycled
  // by any other file the process opens, and a teardown shutdown(2) on the
  // stale number would hit that stranger.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = live_fds_.begin(); it != live_fds_.end(); ++it) {
      if (*it == fd) {
        live_fds_.erase(it);
        break;
      }
    }
    finished_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

}  // namespace rd::serve
