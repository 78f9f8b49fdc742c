// Shared pieces of the rdbench runner: options, the correctness gate, the
// result line, sample statistics, child processes, the trace-derived layer
// times, and the traced run every workload shares (layers.cpp). Each
// workload lives in its own file and fills a Result.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ip/ipv4.h"
#include "util/hash.h"
#include "util/rng.h"

namespace rd::util {
class ThreadPool;
}

namespace rdbench {

namespace fs = std::filesystem;

/// Every workload runs its analyses at this concurrency (the container the
/// baseline was taken on has four cores).
inline constexpr std::size_t kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool shape = false;  // generate the inputs, report their shape, stop
  fs::path bin_dir;    // the built CLIs (audit_network, rdlint, rdd)
  fs::path work_dir;   // generated inputs of this run; removed at exit
  fs::path trace_dir;  // Chrome traces of traced runs
};

/// Counts operations against the outputs they must reproduce. A transport
/// error, an exit code 2 or a byte mismatch is a failed operation; the
/// first few failures are described on stderr.
class Gate {
 public:
  bool check(bool ok, std::string_view what);
  /// One operation: fails when `ok` is false (transport error, wrong exit
  /// code) or when `got` differs from `want` by a byte.
  bool same(std::string_view got, std::string_view want, std::string_view what,
            bool ok = true);
  /// Fold an expected output into the workload's digest. Workloads digest
  /// a fixed, ordered set of them, so equal digests mean two commits
  /// produce the same bytes for the seed.
  void digest(std::string_view bytes) { sha_.update(bytes); }
  std::string digest_hex();
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  rd::util::Sha1 sha_;
};

/// One run's outcome: metrics by name, the gate, and free-form details
/// (sample counts, shape, digest) printed on the line before the result.
struct Result {
  Gate gate;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> details;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Prints the details line and, last, the one-line result JSON.
  void print(const Options& options);
};

double now_s();
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Start `argv` (argv[0] a path) with its stdout on a pipe whose read end
/// lands in `*stdout_fd`; stdin and stderr are inherited. -1 on failure.
pid_t spawn(const std::vector<std::string>& argv, int* stdout_fd);

/// User + system seconds of a rusage.
double cpu_seconds(const struct rusage& usage);

/// A finished child process: exit status, stdout, wall, CPU and peak RSS.
struct ProcessRun {
  int exit_code = -1;  // -1 when it did not exit normally
  std::string out;
  double wall_s = 0.0;
  double cpu_s = 0.0;   // user + sys from wait4
  double rss_mb = 0.0;  // peak (VmHWM) of the exec'd program
};
ProcessRun run_process(const std::vector<std::string>& argv);

/// A numeric field of /proc/<pid>/status ("VmRSS", "VmHWM", ...), in the
/// file's own unit (kB for sizes); 0 when absent.
double proc_status_kb(pid_t pid, const std::string& key);

/// User + system seconds a process has run so far, from /proc/<pid>/stat
/// (clock-tick resolution); 0 when unreadable.
double proc_cpu_s(pid_t pid);

/// Seeded distinct host pairs on a network's LANs (interfaces with a /16
/// to /28 address). Empty when the network has fewer than two LANs.
class PairSource {
 public:
  PairSource(const fs::path& dir, std::uint64_t seed);
  bool empty() const { return lans_.size() < 2; }
  /// The next pair, never one returned before.
  std::pair<std::string, std::string> next();

 private:
  std::string host(const rd::ip::Prefix& lan);
  std::vector<rd::ip::Prefix> lans_;
  rd::util::Rng rng_;
  std::set<std::string> seen_;
};

/// Trace-derived layer times. Only spans of category "bench" (the ones
/// this runner opens around calls into the program) count as layers; the
/// program's own spans inside them belong to the enclosing layer.
struct TraceTimes {
  std::map<std::string, double> self_ms;     // per bench span name, summed
  std::map<std::string, double> total_ms;    // durations, summed
  std::map<std::string, double> max_ms;      // longest single span
  std::map<std::string, double> program_ms;  // the program's spans, summed

  /// Summed duration of the program's spans called `name` (0 when none),
  /// such as its pool.queue_wait events.
  double program(const std::string& name) const {
    const auto it = program_ms.find(name);
    return it == program_ms.end() ? 0.0 : it->second;
  }
};
/// Write the registry's Chrome trace to `path` and derive TraceTimes.
TraceTimes write_and_read_trace(const fs::path& path);

/// Counter value from the program's obs registry.
std::uint64_t counter(std::string_view name);

/// What the first layered pass printed for one network.
struct LayeredBytes {
  std::string audit;   // serve::audit_report
  std::string sarif;   // serve::render_lint_report, SARIF
  std::string report;  // pipeline::analyze_network JSON
  bool operator==(const LayeredBytes&) const = default;
};

/// A network of the traced run: its directory, and whether the workload
/// audits it (only audited networks pass through the audit's own layers).
struct LayeredInput {
  fs::path dir;
  bool audited = false;
};

/// The traced run every workload shares (layers.cpp): the networks pass
/// through each layer's public calls, each inside a bench span, and every
/// per-layer metric is derived from the trace. Checks the passes against
/// each other and returns the first pass's bytes (no audit for networks
/// not audited), so the workload can check them against its references.
std::vector<LayeredBytes> layered_run(const Options& options,
                                      const std::vector<LayeredInput>& networks,
                                      rd::util::ThreadPool& pool,
                                      Result& result);

/// The workloads. Each fills `result`; an exception means no result.
void cold_audit(const Options& options, Result& result);
void daemon_mix(const Options& options, Result& result);

}  // namespace rdbench
