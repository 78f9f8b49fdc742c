// rdctl: the rdd daemon's client. Sends one request frame, prints the
// response — stdout bytes verbatim (identical to the matching one-shot
// CLI), stderr text to stderr — and exits with the response's exit code,
// so scripts can swap `audit_network DIR` for `rdctl ... audit`
// transparently.
//
// Usage:
//   rdctl --socket /tmp/rdd.sock audit
//   rdctl --tcp 7440 rdlint --format json
//   rdctl --socket S reachability 10.0.1.1 10.0.2.1
//   rdctl --socket S headerspace --fleet corp
//   rdctl --socket S stats
//   rdctl --socket S shutdown
//
// Ops: ping, fleets, stats, audit, whatif, rdlint, reachability,
// headerspace, simulate, shutdown.
//
// Options:
//   --socket PATH   connect over the Unix-domain socket
//   --tcp PORT      connect to 127.0.0.1:PORT
//   --fleet NAME    fleet to query (optional when one fleet is loaded)
//   --format F      rdlint: text | json | sarif (default text)
//   --seed N        simulate: simulation seed (default 42)
//   --until MS      simulate: simulated-time cap in ms (default automatic)
//
// Exit codes mirror the one-shot CLIs: 0 = ok, 1 = error-severity
// findings, 2 = usage, transport, or daemon-side error. A connection
// failure (daemon not running, stale socket) is exit 2 with the errno
// text on stderr.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "cli_util.h"
#include "serve/protocol.h"

static int run(int argc, char** argv) {
  using namespace rd;

  std::string socket_path;
  int tcp_port = -1;
  serve::Request request;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const auto want_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: rdctl (--socket PATH | --tcp PORT) <op> [args]\n"
          "\n"
          "ops: ping, fleets, stats, audit, whatif, rdlint,\n"
          "     reachability [SRC DST], headerspace [SRC DST], simulate,\n"
          "     shutdown\n"
          "\n"
          "options:\n"
          "  --fleet NAME   fleet to query (optional with one fleet)\n"
          "  --format F     rdlint format: text | json | sarif\n"
          "  --seed N       simulate: simulation seed (default 42)\n"
          "  --until MS     simulate: simulated-time cap in milliseconds\n"
          "                 (default: automatic)\n"
          "\n"
          "exit codes: 0 ok, 1 error-severity findings, 2 usage or\n"
          "transport error\n");
      return 0;
    }
    if (std::strcmp(argv[i], "--socket") == 0) {
      const char* v = want_value("--socket");
      if (v == nullptr) return 2;
      socket_path = v;
    } else if (std::strcmp(argv[i], "--tcp") == 0) {
      const char* v = want_value("--tcp");
      if (v == nullptr) return 2;
      std::uint32_t port = 0;
      if (!util::parse_u32(util::trim(v), port) || port < 1 ||
          port > 65535) {
        std::fprintf(stderr, "--tcp wants a port in [1, 65535]\n");
        return 2;
      }
      tcp_port = static_cast<int>(port);
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      const char* v = want_value("--fleet");
      if (v == nullptr) return 2;
      request.fleet = v;
    } else if (std::strcmp(argv[i], "--format") == 0) {
      const char* v = want_value("--format");
      if (v == nullptr) return 2;
      request.format = v;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!cli::parse_u64_flag(i + 1 < argc ? argv[++i] : nullptr,
                               request.seed)) {
        std::fprintf(stderr, "--seed wants an unsigned integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--until") == 0) {
      if (!cli::parse_u64_flag(i + 1 < argc ? argv[++i] : nullptr,
                               request.until_ms)) {
        std::fprintf(stderr,
                     "--until wants a simulated-time cap in milliseconds\n");
        return 2;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s' (see --help)\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty()) {
    std::fprintf(stderr, "no op given (see --help)\n");
    return 2;
  }
  request.op = positional[0];
  if (positional.size() == 3) {
    request.source = positional[1];
    request.destination = positional[2];
  } else if (positional.size() != 1) {
    std::fprintf(stderr, "expected '<op>' or '<op> SRC DST' (see --help)\n");
    return 2;
  }
  if (socket_path.empty() == (tcp_port < 0)) {
    std::fprintf(stderr, "pick exactly one of --socket or --tcp\n");
    return 2;
  }

  const int fd = socket_path.empty()
                     ? serve::connect_tcp("127.0.0.1",
                                          static_cast<std::uint16_t>(tcp_port))
                     : serve::connect_unix(socket_path);
  if (fd < 0) {
    // connect_unix/connect_tcp preserve connect(2)'s errno across their
    // cleanup, so this names the real failure: ECONNREFUSED for a dead
    // daemon or a stale socket file, ENOENT for a path that never existed.
    std::fprintf(stderr, "rdctl: cannot connect to %s: %s (is rdd running?)\n",
                 socket_path.empty()
                     ? ("127.0.0.1:" + std::to_string(tcp_port)).c_str()
                     : socket_path.c_str(),
                 std::strerror(errno));
    return 2;
  }
  std::string error;
  const auto response = serve::roundtrip(fd, request, &error);
  ::close(fd);
  if (!response) {
    std::fprintf(stderr, "rdctl: %s\n", error.c_str());
    return 2;
  }
  if (!response->output.empty()) {
    std::fwrite(response->output.data(), 1, response->output.size(), stdout);
  }
  if (!response->error.empty()) {
    std::fwrite(response->error.data(), 1, response->error.size(), stderr);
  }
  return response->exit_code;
}

int main(int argc, char** argv) {
  return rd::cli::guarded_main("rdctl", run, argc, argv);
}
