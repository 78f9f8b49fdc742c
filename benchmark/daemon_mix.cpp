// daemon_mix: §6.2-style questions to a resident daemon. `rdd --threads 4
// --store` holds two fleets, `mgd` (the managed archetype) and `n5`
// (net5). One client sends seeded rounds of requests one at a time,
// each on a new Unix-socket connection, as rdctl does. A round is one
// fresh-seed `simulate` on mgd, five first-time pair queries on n5
// (reachability and headerspace alternating), eight repeats from a hot set
// sent once in an untimed warm-up, and two ping/stats, in a seeded order.
// Set-up is rdd's boot over the parse store an untimed cold boot wrote.
// After the window every response is checked against the in-process
// serve::*_report on a separately built copy of both fleets.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <optional>
#include <stdexcept>

#include "analysis/rules.h"
#include "bench.h"
#include "graph/instances.h"
#include "model/network.h"
#include "pipeline/parse_cache.h"
#include "pipeline/series.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rdbench {

namespace {

using namespace rd;

constexpr std::size_t kHotPairs = 6;
/// mgd is the managed archetype at one generator seed, whatever the
/// workload seed: across generator seeds one simulate costs 0.3 to 1.0 s,
/// so a seed-drawn mgd would set the daemon's figures by itself. The
/// workload seed drives n5 (881 routers at every seed), the pairs, the
/// hot set, the simulate seeds and the request order.
constexpr std::uint64_t kMgdSeed = 1;
/// One round: a simulate, then these many fresh, repeat and control
/// requests, shuffled.
constexpr std::size_t kFreshPerRound = 5;
constexpr std::size_t kRepeatsPerRound = 8;
constexpr std::size_t kControlPerRound = 2;

/// A running rdd. The destructor kills it if it is still up, so no error
/// path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, std::string socket)
      : socket_(std::move(socket)) {
    const double start = now_s();
    pid_ = spawn(argv, &out_fd_);
    if (pid_ < 0) throw std::runtime_error("cannot start rdd");
    // Boot ends at the "listening" line, which rdd flushes once every
    // fleet is resident.
    char c = 0;
    for (;;) {
      const ssize_t n = read(out_fd_, &c, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        stop();  // a throwing constructor runs no destructor
        throw std::runtime_error("rdd exited during boot: " + log_);
      }
      log_ += c;
      if (c != '\n') continue;
      if (log_.find("rdd: listening on") != std::string::npos) break;
    }
    boot_s_ = now_s() - start;
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  double boot_s() const { return boot_s_; }
  const std::string& log() const { return log_; }
  pid_t pid() const { return pid_; }

  /// Ask for a clean shutdown; kill after 20 s. True on exit code 0.
  bool shutdown() {
    serve::Request request;
    request.op = "shutdown";
    const int fd = serve::connect_unix(socket_);
    if (fd >= 0) {
      serve::roundtrip(fd, request);
      close(fd);
    }
    close(out_fd_);  // rdd ignores SIGPIPE; its last line just goes nowhere
    out_fd_ = -1;
    int status = 0;
    const double deadline = now_s() + 20.0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(2000);
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  std::string socket_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  double boot_s_ = 0.0;
  std::string log_;
};

std::optional<serve::Response> ask(const std::string& socket,
                                   const serve::Request& request) {
  const int fd = serve::connect_unix(socket);
  if (fd < 0) return std::nullopt;
  auto response = serve::roundtrip(fd, request);
  close(fd);
  return response;
}

serve::Request make_request(const std::string& op, const std::string& fleet) {
  serve::Request request;
  request.op = op;
  request.fleet = fleet;
  return request;
}

/// The separately built copy of a fleet, the way rdd's Service builds it.
struct Copy {
  std::string report_name;
  std::unique_ptr<model::Network> network;
  std::unique_ptr<graph::InstanceGraph> graph;
};

Copy build_copy(const fs::path& dir, util::ThreadPool& pool) {
  Copy copy;
  const auto loaded = synth::load_network_texts_named(dir);
  pipeline::ParseCache cache;
  copy.report_name = dir.filename().string();
  copy.network = std::make_unique<model::Network>(
      pipeline::build_network_cached(loaded.texts, loaded.names, cache, pool));
  copy.graph = std::make_unique<graph::InstanceGraph>(
      graph::InstanceGraph::build(*copy.network));
  return copy;
}

/// The in-process answer rdd must reproduce for an analysis request.
serve::QueryResult expected(const serve::Request& request, const Copy& mgd,
                            const Copy& n5, const analysis::RuleEngine& engine,
                            util::ThreadPool& pool) {
  const Copy& fleet = request.fleet == "mgd" ? mgd : n5;
  if (request.op == "audit") {
    return serve::audit_report(*fleet.network, *fleet.graph, pool);
  }
  if (request.op == "rdlint") {
    return serve::lint_report(*fleet.network, engine, fleet.report_name,
                              serve::LintFormat::kSarif, pool,
                              fleet.graph.get());
  }
  if (request.op == "simulate") {
    return serve::simulate_report(*fleet.network, *fleet.graph, request.seed,
                                  request.until_ms, pool);
  }
  serve::ReachabilityRequest reach;
  reach.symbolic = request.op == "headerspace";
  reach.source = request.source;
  reach.destination = request.destination;
  return serve::reachability_report(*fleet.network, fleet.graph->set, reach);
}

bool matches(const serve::Response& got, const serve::QueryResult& want) {
  return got.ok && got.exit_code == want.exit_code && got.output == want.output;
}

enum Class { kFresh, kRepeat, kControl, kSimulate };

struct Sample {
  Class cls = kFresh;
  std::size_t hot = 0;  // repeats: hot-set index
  serve::Request request;
  std::optional<serve::Response> response;
};

}  // namespace

void daemon_mix(const Options& options, Result& result) {
  const fs::path mgd_dir = options.work_dir / "mgd";
  const fs::path n5_dir = options.work_dir / "n5";
  const fs::path store_dir = options.work_dir / "store";
  // A relative socket path keeps under the 108-byte sun_path limit.
  const std::string socket =
      fs::relative(options.work_dir / "rdd.sock").string();
  if (socket.size() > 100) throw std::runtime_error("socket path too long");

  synth::ManagedEnterpriseParams params;
  params.seed = kMgdSeed;
  const auto mgd_net = synth::make_managed_enterprise(params);
  synth::emit_network(mgd_net.configs, mgd_dir);
  const auto n5_net = synth::make_net5(options.seed);
  synth::emit_network(n5_net.configs, n5_dir);
  result.details["mgd_routers"] = static_cast<double>(mgd_net.configs.size());
  result.details["n5_routers"] = static_cast<double>(n5_net.configs.size());

  util::ThreadPool pool(kThreads);
  const auto engine = analysis::RuleEngine::with_default_rules();
  const Copy mgd = build_copy(mgd_dir, pool);
  const Copy n5 = build_copy(n5_dir, pool);
  const std::size_t diagnostics = mgd.network->total_parse_diagnostics() +
                                  n5.network->total_parse_diagnostics();
  result.details["diagnostics"] = static_cast<double>(diagnostics);
  result.gate.check(diagnostics == 0, "generated input shape (0 diagnostics)");
  if (options.shape) return;

  // Warm-up set: pair queries, SARIF lint of n5 and the audit of mgd,
  // with the bytes rdd must answer.
  PairSource pairs(n5_dir, options.seed);
  if (pairs.empty()) throw std::runtime_error("n5 has too few LANs");
  std::vector<serve::Request> hot;
  for (std::size_t i = 0; i < kHotPairs; ++i) {
    auto request =
        make_request(i % 2 == 0 ? "reachability" : "headerspace", "n5");
    std::tie(request.source, request.destination) = pairs.next();
    hot.push_back(request);
  }
  hot.push_back(make_request("rdlint", "n5"));
  hot.back().format = "sarif";
  hot.push_back(make_request("audit", "mgd"));
  std::vector<std::string> hot_bytes;
  for (const auto& request : hot) {
    hot_bytes.push_back(expected(request, mgd, n5, engine, pool).output);
    result.gate.digest(hot_bytes.back());
  }
  if (options.trace) {
    // The mix audits mgd only.
    const auto layered =
        layered_run(options, {{mgd_dir, true}, {n5_dir, false}}, pool, result);
    result.gate.same(layered[0].audit, hot_bytes.back(), "layered audit of mgd");
    result.gate.same(layered[1].sarif, hot_bytes[kHotPairs],
                     "layered SARIF of n5");
    return;
  }

  const std::vector<std::string> rdd_argv = {
      (options.bin_dir / "rdd").string(), "--socket", socket, "--threads",
      std::to_string(kThreads), "--store", store_dir.string(), "--fleet",
      "mgd=" + mgd_dir.string(), "--fleet", "n5=" + n5_dir.string()};

  // Set-up: a cold boot over a fresh store writes the store, then eleven
  // boots over it, whose median is set-up time; the last one serves the
  // window. A cold boot's store writes are file-system time, too noisy to
  // bound. Every boot over the store must parse nothing.
  fs::remove_all(store_dir);
  auto daemon = std::make_unique<Daemon>(rdd_argv, socket);
  std::vector<double> setup_s;
  for (int i = 0; i < 11; ++i) {
    result.gate.check(daemon->shutdown(), "rdd clean shutdown");
    daemon = std::make_unique<Daemon>(rdd_argv, socket);
    setup_s.push_back(daemon->boot_s());
    result.gate.check(
        daemon->log().find("0 parsed), " +
                           std::to_string(mgd_net.configs.size())) !=
                std::string::npos &&
            daemon->log().find("0 parsed), " +
                               std::to_string(n5_net.configs.size())) !=
                std::string::npos,
        "boot over the store parses no config");
  }
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const auto response = ask(socket, hot[i]);
    result.gate.same(response ? response->output : "", hot_bytes[i],
                     "warm-up " + hot[i].op, response && response->ok);
  }

  // The window: whole rounds, one request at a time, until the time is up.
  util::Rng rng(options.seed * 31 + 7);
  std::vector<Sample> samples;
  std::vector<double> round_ms, round_cpu_ms;
  std::size_t fresh = 0;
  const double start = now_s();
  while (round_ms.size() < 2 || now_s() - start < options.seconds) {
    std::vector<Sample> round(1 + kFreshPerRound + kRepeatsPerRound +
                              kControlPerRound);
    round[0].cls = kSimulate;
    round[0].request = make_request("simulate", "mgd");
    round[0].request.seed = options.seed * 100000 + round_ms.size();
    for (std::size_t i = 1; i < round.size(); ++i) {
      auto& sample = round[i];
      if (i <= kFreshPerRound) {
        sample.cls = kFresh;
        // Reachability and headerspace alternate along the pair stream.
        sample.request = make_request(
            fresh++ % 2 == 0 ? "reachability" : "headerspace", "n5");
        std::tie(sample.request.source, sample.request.destination) =
            pairs.next();
      } else if (i <= kFreshPerRound + kRepeatsPerRound) {
        sample.cls = kRepeat;
        sample.hot = rng.below(hot.size());
        sample.request = hot[sample.hot];
      } else {
        sample.cls = kControl;
        sample.request = make_request(i % 2 == 0 ? "ping" : "stats", "");
      }
    }
    for (std::size_t i = round.size() - 1; i > 0; --i) {
      std::swap(round[i], round[rng.below(i + 1)]);
    }
    const double cpu0 = proc_cpu_s(daemon->pid());
    const double t0 = now_s();
    for (auto& sample : round) {
      sample.response = ask(socket, sample.request);
    }
    const auto n = static_cast<double>(round.size());
    round_ms.push_back((now_s() - t0) * 1000.0 / n);
    round_cpu_ms.push_back((proc_cpu_s(daemon->pid()) - cpu0) * 1000.0 / n);
    for (auto& sample : round) samples.push_back(std::move(sample));
  }
  const double window_s = now_s() - start;
  const double rss_mb = proc_status_kb(daemon->pid(), "VmHWM") / 1024.0;
  result.gate.check(daemon->shutdown(), "rdd clean shutdown");

  // Check every response of the window.
  std::vector<char> ok(samples.size(), 0);
  util::parallel_for(pool, samples.size(), [&](std::size_t i) {
    const auto& sample = samples[i];
    const auto& response = sample.response;
    if (!response || !response->ok) return;
    switch (sample.cls) {
      case kRepeat:
        ok[i] = response->output == hot_bytes[sample.hot];
        break;
      case kControl:
        ok[i] = sample.request.op == "ping"
                    ? response->output == "pong\n"
                    : util::Json::parse(response->output).has_value();
        break;
      default: {
        const auto want = expected(sample.request, mgd, n5, engine, pool);
        ok[i] = matches(*response, want) &&
                (sample.cls != kSimulate ||
                 want.output.find("fixpoint cross-check: every scenario's "
                                  "RIBs match") != std::string::npos);
      }
    }
  });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    result.gate.check(ok[i] != 0, "window " + samples[i].request.op +
                                      " response");
  }

  result.metric("setup_s", median(setup_s), "s");
  result.metric("latency_ms", median(round_ms), "ms");
  result.metric("cpu_ms", median(round_cpu_ms), "ms");
  result.metric("peak_rss_mb", rss_mb, "MB");
  result.details["window_s"] = window_s;
  result.details["rounds"] = static_cast<double>(round_ms.size());
  result.details["requests"] = static_cast<double>(samples.size());
}

}  // namespace rdbench
