// rdbench: the repo's benchmark runner. One invocation runs one seeded
// workload (cold_audit, daemon_mix) against the repo's built
// CLIs and libraries, checks every output, and prints one JSON result line.
//
//   rdbench --workload NAME --seed N --seconds S --trace 0|1
//           --bin DIR --work DIR --traces DIR [--corrupt-one] [--shape]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same inputs through the layers one public call at a time, each
// call inside an obs::Span opened here, and reports per-layer metrics
// derived from the Chrome trace it writes. --corrupt-one alters the first
// output the gate compares, so a self-check can watch the gate count it.
// --shape prints the generated inputs' shape for the seed and exits.
#include "bench.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "config/parser.h"
#include "obs/obs.h"
#include "synth/emit.h"
#include "util/json.h"
#include "util/strings.h"

namespace rdbench {

namespace {

bool g_corrupt_next = false;

/// Shortest round-trip form: a metric keeps every digit measured, where
/// util::Json rounds doubles to ten significant digits.
std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

}  // namespace

bool Gate::check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    if (++failed_ <= 5) {
      std::fprintf(stderr, "rdbench: FAILED %.*s\n",
                   static_cast<int>(what.size()), what.data());
    }
  }
  return ok;
}

bool Gate::same(std::string_view got, std::string_view want,
                std::string_view what, bool ok) {
  std::string corrupted;
  if (g_corrupt_next) {
    g_corrupt_next = false;
    corrupted = std::string(got) + "corrupted by --corrupt-one\n";
    got = corrupted;
  }
  return check(ok && got == want, what);
}

std::string Gate::digest_hex() {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (const auto byte : sha_.digest()) {
    out += kHex[byte >> 4];
    out += kHex[byte & 15];
  }
  return out;
}

void Result::print(const Options& options) {
  using rd::util::Json;
  auto detail = Json::object();
  for (const auto& [key, value] : details) detail.set(key, value);
  auto head = Json::object();
  head.set("workload", options.workload)
      .set("seed", options.seed)
      .set("trace", options.trace ? 1 : 0)
      .set("digest", gate.digest_hex())
      .set("details", std::move(detail));
  std::printf("%s\n", head.dump().c_str());

  std::string metrics_json;
  for (const auto& [name, value] : metrics) {
    metrics_json += (metrics_json.empty() ? "" : ",") + Json(name).dump() +
                    ":{\"value\":" + number(value.first) +
                    ",\"unit\":" + Json(value.second).dump() + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              gate.failed() == 0 && gate.attempted() > 0 ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted()),
              static_cast<unsigned long long>(gate.failed()),
              metrics_json.c_str());
  std::fflush(stdout);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const auto v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double cpu_seconds(const struct rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

pid_t spawn(const std::vector<std::string>& argv, int* stdout_fd) {
  // argv is laid out before fork: the child of a threaded parent may only
  // make async-signal-safe calls until exec.
  std::vector<char*> args;
  for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  int out_pipe[2];
  if (pipe(out_pipe) != 0) return -1;
  const pid_t pid = fork();
  if (pid == 0) {
    // The child dies with this process, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execv(args[0], args.data());
    _exit(127);
  }
  close(out_pipe[1]);
  if (pid < 0) {
    close(out_pipe[0]);
    return -1;
  }
  *stdout_fd = out_pipe[0];
  return pid;
}

double proc_status_kb(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::atof(line.c_str() + key.size() + 1);
    }
  }
  return 0.0;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime fields 14 and 15.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

PairSource::PairSource(const fs::path& dir, std::uint64_t seed)
    : rng_(seed ^ 0x9A125ull) {
  for (const auto& text : rd::synth::load_network_texts(dir)) {
    for (const auto& itf : rd::config::parse_config(text).config.interfaces) {
      if (!itf.address || itf.shutdown) continue;
      const int length = itf.address->mask.length();
      if (length < 16 || length > 28) continue;
      lans_.push_back(itf.address->subnet());
    }
  }
}

std::pair<std::string, std::string> PairSource::next() {
  for (;;) {
    const auto& a = lans_[rng_.below(lans_.size())];
    const auto& b = lans_[rng_.below(lans_.size())];
    if (a == b) continue;
    auto pair = std::make_pair(host(a), host(b));
    if (!seen_.insert(pair.first + " " + pair.second).second) continue;
    return pair;
  }
}

std::string PairSource::host(const rd::ip::Prefix& lan) {
  const auto span = static_cast<std::uint32_t>(lan.size() - 2);
  return rd::ip::Ipv4Address(lan.network().value() + 1 +
                             static_cast<std::uint32_t>(rng_.below(span)))
      .to_string();
}

ProcessRun run_process(const std::vector<std::string>& argv) {
  ProcessRun run;
  const double start = now_s();
  int out_fd = -1;
  const pid_t pid = spawn(argv, &out_fd);
  if (pid < 0) return run;
  // Peak RSS is sampled from /proc while the child runs: wait4's ru_maxrss
  // would also count the pages the child shared with this process between
  // fork and exec. Until exec its comm is still this program's.
  const std::string comm = fs::path(argv[0]).filename().string().substr(0, 15);
  const auto comm_path = "/proc/" + std::to_string(pid) + "/comm";
  double hwm_kb = 0.0;
  const auto sample = [&] {
    std::string now;
    std::getline(std::ifstream(comm_path), now);
    if (now == comm) hwm_kb = std::max(hwm_kb, proc_status_kb(pid, "VmHWM"));
  };
  pollfd ready{out_fd, POLLIN, 0};
  char buffer[1 << 16];
  for (;;) {
    const int events = poll(&ready, 1, 5);
    sample();
    if (events == 0 || (events < 0 && errno == EINTR)) continue;
    const ssize_t n = events > 0 ? read(out_fd, buffer, sizeof buffer) : -1;
    if (n > 0) {
      run.out.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(out_fd);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wall_s = now_s() - start;
  run.cpu_s = cpu_seconds(usage);
  run.rss_mb = hwm_kb / 1024.0;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

TraceTimes write_and_read_trace(const fs::path& path) {
  const auto json = rd::obs::Registry::instance().trace_json();
  fs::create_directories(path.parent_path());
  std::ofstream(path, std::ios::binary) << json;

  TraceTimes times;
  const auto doc = rd::util::Json::parse(json);
  const auto* events = doc ? doc->get("traceEvents") : nullptr;
  if (events == nullptr) throw std::runtime_error("unreadable trace");
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
  };
  std::map<long long, std::vector<Span>> bench_by_thread;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto& e = *events->at(i);
    const auto* ph = e.get("ph");
    if (ph == nullptr || ph->if_string() == nullptr || *ph->if_string() != "X") {
      continue;
    }
    const auto& name = *e.get("name")->if_string();
    const double ts = e.get("ts")->number_or(0.0) / 1000.0;  // us -> ms
    const double dur = e.get("dur")->number_or(0.0) / 1000.0;
    const auto* cat = e.get("cat");
    if (cat == nullptr || cat->if_string() == nullptr ||
        *cat->if_string() != "bench") {
      times.program_ms[name] += dur;
      continue;
    }
    bench_by_thread[e.get("tid")->int_or(0)].push_back({name, ts, ts + dur});
  }
  // Self time: a span's duration minus the part its child bench spans on
  // the same thread cover. Spans nest, so a stack walk in start order
  // finds each span's direct children.
  for (auto& [tid, spans] : bench_by_thread) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<std::pair<const Span*, double>> stack;  // span, child time
    const auto pop = [&] {
      const auto [span, children] = stack.back();
      stack.pop_back();
      const double dur = span->end - span->start;
      times.self_ms[span->name] += dur - children;
      times.total_ms[span->name] += dur;
      times.max_ms[span->name] = std::max(times.max_ms[span->name], dur);
      if (!stack.empty()) stack.back().second += dur;
    };
    for (const auto& span : spans) {
      while (!stack.empty() && stack.back().first->end <= span.start) pop();
      stack.emplace_back(&span, 0.0);
    }
    while (!stack.empty()) pop();
  }
  return times;
}

std::uint64_t counter(std::string_view name) {
  return rd::obs::counter(name).value();
}

}  // namespace rdbench

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "rdbench: %s\nusage: rdbench --workload cold_audit|daemon_mix"
               " --seed N --seconds S --trace 0|1 --bin DIR "
               "--work DIR --traces DIR [--corrupt-one] [--shape]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-one") {
      g_corrupt_next = true;
      continue;
    }
    if (arg == "--shape") {
      options.shape = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!rd::util::parse_u64(value, options.seed)) return usage("bad seed");
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
      if (!(options.seconds > 0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace wants 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--bin") {
      options.bin_dir = value;
    } else if (arg == "--work") {
      options.work_dir = value;
    } else if (arg == "--traces") {
      options.trace_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  std::signal(SIGPIPE, SIG_IGN);

  void (*workload)(const Options&, Result&) = nullptr;
  if (options.workload == "cold_audit") workload = cold_audit;
  if (options.workload == "daemon_mix") workload = daemon_mix;
  if (workload == nullptr) return usage("unknown workload");
  if (options.work_dir.empty() || (!options.shape && options.bin_dir.empty())) {
    return usage("--bin and --work are required");
  }
  if (options.trace_dir.empty()) options.trace_dir = options.work_dir / "traces";
  options.work_dir /= options.workload + "-" + std::to_string(getpid());

  Result result;
  int rc = 0;
  try {
    fs::remove_all(options.work_dir);
    fs::create_directories(options.work_dir);
    workload(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rdbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    rc = 2;
  }
  std::error_code ignored;
  fs::remove_all(options.work_dir, ignored);
  if (rc == 0) result.print(options);
  return rc;
}
