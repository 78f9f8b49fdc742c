#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rd::serve {

/// The rdd wire protocol (DESIGN.md §14): length-prefixed JSON frames over
/// a stream socket (Unix-domain or TCP). Each frame is a 4-byte big-endian
/// payload length followed by that many bytes of UTF-8 JSON. Clients send
/// one Request frame and read one Response frame, repeating on the same
/// connection as long as they like; the daemon answers frames on a
/// connection strictly in order. Frames above kMaxFrameBytes are rejected
/// without allocating — a garbage length prefix must not look like an
/// allocation request.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;  // 64 MiB

/// One client query. Unknown ops draw an error Response, not a hangup, so
/// old rdctl binaries degrade gracefully against newer daemons.
struct Request {
  /// ping | fleets | stats | audit | whatif | rdlint | reachability |
  /// headerspace | simulate | shutdown
  std::string op;
  std::string fleet;   // fleet name; may be empty when one fleet is loaded
  std::string format;  // rdlint: text | json | sarif (default text)
  std::string source;  // reachability / headerspace endpoint pair
  std::string destination;
  /// simulate: the convergence-simulation seed and simulated-time cap
  /// (0 = automatic). Part of the response-cache key — two simulations
  /// with different seeds are different pure functions.
  std::uint64_t seed = 42;
  std::uint64_t until_ms = 0;
};

/// The daemon's answer. `output` carries the exact bytes the matching
/// one-shot CLI writes to stdout; `error` its stderr; `exit_code` follows
/// the CLI contract (0 ok, 1 error-severity findings, 2 usage error). `ok`
/// is false only when the request itself failed (unknown op, unknown
/// fleet, malformed frame) — a lint run that finds errors is still ok:true
/// with exit_code 1.
struct Response {
  bool ok = true;
  int exit_code = 0;
  std::string output;
  std::string error;
};

std::string encode_request(const Request& request);
std::optional<Request> decode_request(std::string_view payload);
std::string encode_response(const Response& response);
std::optional<Response> decode_response(std::string_view payload);

/// Write one frame. Retries on EINTR and partial writes; suppresses
/// SIGPIPE at the call site (MSG_NOSIGNAL on sockets — and guarded_main
/// ignores the signal process-wide for the plain-pipe fallback), so a peer
/// that hung up yields `false` (EPIPE) instead of killing the process.
bool write_frame(int fd, std::string_view payload);

/// Read one frame into `payload`. Returns false at clean EOF (peer closed
/// between frames, `*error` left empty) and on any protocol violation —
/// truncated prefix or body, or a length above kMaxFrameBytes — with a
/// description in `*error`.
bool read_frame(int fd, std::string& payload, std::string* error);

/// Connect helpers; -1 on failure. `connect_tcp` takes a dotted-quad or
/// "localhost".
int connect_unix(const std::string& path);
int connect_tcp(const std::string& host, std::uint16_t port);

/// Send a request and read the matching response over an open connection.
/// nullopt on transport or decode failure (detail in `*error` if given).
std::optional<Response> roundtrip(int fd, const Request& request,
                                  std::string* error = nullptr);

}  // namespace rd::serve
