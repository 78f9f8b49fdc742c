#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/json.h"

namespace rd::serve {

namespace {

/// write(2)/send(2) the whole buffer, retrying on EINTR and short writes.
/// Sockets get MSG_NOSIGNAL so a dead peer surfaces as EPIPE, not SIGPIPE;
/// non-socket fds (the tests drive pipes through this too) fall back to
/// plain write, where guarded_main's SIG_IGN covers the signal.
bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// read(2) exactly `size` bytes. Returns the byte count actually read (EOF
/// mid-buffer yields a short count), or -1 on error.
ssize_t read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

std::string encode_request(const Request& request) {
  auto doc = util::Json::object();
  doc.set("op", request.op);
  if (!request.fleet.empty()) doc.set("fleet", request.fleet);
  if (!request.format.empty()) doc.set("format", request.format);
  if (!request.source.empty()) doc.set("source", request.source);
  if (!request.destination.empty()) {
    doc.set("destination", request.destination);
  }
  if (request.seed != 42) doc.set("seed", request.seed);
  if (request.until_ms != 0) doc.set("until_ms", request.until_ms);
  return doc.dump();
}

std::optional<Request> decode_request(std::string_view payload) {
  const auto doc = util::Json::parse(payload);
  if (!doc || !doc->is_object()) return std::nullopt;
  const auto* op = doc->get("op");
  if (op == nullptr || !op->is_string()) return std::nullopt;
  Request request;
  request.op = *op->if_string();
  const auto str = [&](const char* key, std::string& out) {
    if (const auto* v = doc->get(key); v != nullptr && v->is_string()) {
      out = *v->if_string();
    }
  };
  str("fleet", request.fleet);
  str("format", request.format);
  str("source", request.source);
  str("destination", request.destination);
  if (const auto* seed = doc->get("seed"); seed != nullptr) {
    request.seed = static_cast<std::uint64_t>(seed->int_or(42));
  }
  if (const auto* until = doc->get("until_ms"); until != nullptr) {
    request.until_ms = static_cast<std::uint64_t>(until->int_or(0));
  }
  return request;
}

std::string encode_response(const Response& response) {
  auto doc = util::Json::object();
  doc.set("ok", response.ok);
  doc.set("exit", response.exit_code);
  doc.set("output", response.output);
  if (!response.error.empty()) doc.set("error", response.error);
  return doc.dump();
}

std::optional<Response> decode_response(std::string_view payload) {
  const auto doc = util::Json::parse(payload);
  if (!doc || !doc->is_object()) return std::nullopt;
  const auto* ok = doc->get("ok");
  const auto* output = doc->get("output");
  if (ok == nullptr || !ok->is_bool() || output == nullptr ||
      !output->is_string()) {
    return std::nullopt;
  }
  Response response;
  response.ok = ok->bool_or(false);
  response.output = *output->if_string();
  if (const auto* exit = doc->get("exit"); exit != nullptr) {
    response.exit_code = static_cast<int>(exit->int_or(0));
  }
  if (const auto* error = doc->get("error");
      error != nullptr && error->is_string()) {
    response.error = *error->if_string();
  }
  return response;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  unsigned char prefix[4];
  const auto n = static_cast<std::uint32_t>(payload.size());
  prefix[0] = static_cast<unsigned char>(n >> 24);
  prefix[1] = static_cast<unsigned char>(n >> 16);
  prefix[2] = static_cast<unsigned char>(n >> 8);
  prefix[3] = static_cast<unsigned char>(n);
  return write_all(fd, prefix, sizeof prefix) &&
         write_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& payload, std::string* error) {
  if (error != nullptr) error->clear();
  unsigned char prefix[4];
  const ssize_t got = read_all(fd, prefix, sizeof prefix);
  if (got == 0) return false;  // clean EOF between frames
  if (got != sizeof prefix) {
    if (error != nullptr) *error = "truncated frame length prefix";
    return false;
  }
  const std::uint32_t n = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                          (static_cast<std::uint32_t>(prefix[1]) << 16) |
                          (static_cast<std::uint32_t>(prefix[2]) << 8) |
                          static_cast<std::uint32_t>(prefix[3]);
  if (n > kMaxFrameBytes) {
    if (error != nullptr) {
      *error = "frame of " + std::to_string(n) + " bytes exceeds the " +
               std::to_string(kMaxFrameBytes) + "-byte limit";
    }
    return false;
  }
  payload.resize(n);
  if (n > 0 && read_all(fd, payload.data(), n) !=
                   static_cast<ssize_t>(n)) {
    if (error != nullptr) *error = "truncated frame body";
    return false;
  }
  return true;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    // Preserve connect's errno across the cleanup close(2) so callers can
    // report the real failure (ECONNREFUSED, ENOENT, ...).
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

std::optional<Response> roundtrip(int fd, const Request& request,
                                  std::string* error) {
  if (!write_frame(fd, encode_request(request))) {
    if (error != nullptr) *error = "cannot send request";
    return std::nullopt;
  }
  std::string payload;
  std::string frame_error;
  if (!read_frame(fd, payload, &frame_error)) {
    if (error != nullptr) {
      *error = frame_error.empty() ? "connection closed by the daemon"
                                   : frame_error;
    }
    return std::nullopt;
  }
  auto response = decode_response(payload);
  if (!response && error != nullptr) *error = "malformed response frame";
  return response;
}

}  // namespace rd::serve
