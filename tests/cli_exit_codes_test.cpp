// Every example CLI honors the exit-code contract's error leg: feeding a
// truncated configuration file where a config directory belongs must exit 2
// (usage / I/O error) — not 0, not 1, and especially not an uncaught
// std::filesystem_error turning into std::terminate (exit 134). Also pins
// the unified --threads parsing: out-of-range and non-numeric values exit 2
// on every CLI that takes the flag.
//
// The binaries are found via RD_EXAMPLES_BIN_DIR, injected by CMake.

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#if defined(_WIN32)
#error "this test suite assumes POSIX wait-status decoding"
#endif
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

/// Runs `<bin-dir>/<tool> <args>` with stdout/stderr discarded and returns
/// the tool's exit code, or -1 when it did not exit normally (signal,
/// abort) — the failure mode this suite exists to rule out.
int run_tool(const std::string& tool, const std::string& args) {
  const std::string command = std::string(RD_EXAMPLES_BIN_DIR) + "/" + tool +
                              " " + args + " >/dev/null 2>/dev/null";
  const int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Like run_tool, but captures stdout into `stdout_out` (for the legs that
/// compare two invocations' reports).
int run_tool_stdout(const std::string& tool, const std::string& args,
                    const std::string& stdout_file, std::string* stdout_out) {
  const std::string command = std::string(RD_EXAMPLES_BIN_DIR) + "/" + tool +
                              " " + args + " >" + stdout_file + " 2>/dev/null";
  const int status = std::system(command.c_str());
  std::ifstream in(stdout_file);
  std::ostringstream text;
  text << in.rdbuf();
  *stdout_out = text.str();
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Like run_tool, but captures stderr into `stderr_out` (for the legs that
/// assert on diagnostic text, not just the exit code).
int run_tool_stderr(const std::string& tool, const std::string& args,
                    const std::string& stderr_file, std::string* stderr_out) {
  const std::string command = std::string(RD_EXAMPLES_BIN_DIR) + "/" + tool +
                              " " + args + " >/dev/null 2>" + stderr_file;
  const int status = std::system(command.c_str());
  std::ifstream in(stderr_file);
  std::ostringstream text;
  text << in.rdbuf();
  *stderr_out = text.str();
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

class CliExitCodesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rd_cli_exit_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    truncated_ = (dir_ / "truncated-config").string();
    std::ofstream out(truncated_);
    // A config cut off mid-statement — a plain file, not the directory
    // every tool expects.
    out << "hostname torn-router\ninterface FastEth";
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// A small generated config directory (the textbook enterprise).
  std::string network_dir() {
    const std::string dir = (dir_ / "enterprise").string();
    if (!fs::is_directory(dir)) {
      EXPECT_EQ(run_tool("generate_network", "enterprise " + dir), 0);
    }
    return dir;
  }

  fs::path dir_;
  std::string truncated_;
};

TEST_F(CliExitCodesTest, TruncatedConfigFileExitsTwoEverywhere) {
  EXPECT_EQ(run_tool("quickstart", truncated_), 2);
  EXPECT_EQ(run_tool("audit_network", truncated_), 2);
  EXPECT_EQ(run_tool("reachability_query", truncated_), 2);
  EXPECT_EQ(run_tool("export_design", truncated_), 2);
  EXPECT_EQ(run_tool("rdlint", truncated_), 2);
  EXPECT_EQ(run_tool("pathway_report", truncated_ + " some-router"), 2);
  EXPECT_EQ(run_tool("diff_snapshots", truncated_ + " " + truncated_), 2);
  EXPECT_EQ(run_tool("diff_snapshots", "--series " + truncated_ + " " +
                                           truncated_),
            2);
  EXPECT_EQ(run_tool("anonymize_configs",
                     truncated_ + " " + (dir_ / "anon-out").string()),
            2);
  // generate_network reads no configs; its I/O error leg is an output
  // directory that is actually a file.
  EXPECT_EQ(run_tool("generate_network", "enterprise " + truncated_), 2);
}

TEST_F(CliExitCodesTest, NonexistentPathExitsTwo) {
  const std::string gone = (dir_ / "does-not-exist").string();
  EXPECT_EQ(run_tool("quickstart", gone), 2);
  EXPECT_EQ(run_tool("audit_network", gone), 2);
  EXPECT_EQ(run_tool("rdlint", gone), 2);
  EXPECT_EQ(run_tool("reachability_query", gone), 2);
}

TEST_F(CliExitCodesTest, BadThreadsValueExitsTwo) {
  for (const char* tool : {"audit_network", "rdlint"}) {
    EXPECT_EQ(run_tool(tool, "--threads 0"), 2) << tool;
    EXPECT_EQ(run_tool(tool, "--threads 1025"), 2) << tool;
    EXPECT_EQ(run_tool(tool, "--threads abc"), 2) << tool;
    EXPECT_EQ(run_tool(tool, "--threads"), 2) << tool;
  }
}

TEST_F(CliExitCodesTest, UsageErrorsExitTwo) {
  EXPECT_EQ(run_tool("generate_network", "bogus-archetype " +
                                             (dir_ / "out").string()),
            2);
  EXPECT_EQ(run_tool("rdlint", "--format yaml"), 2);
  EXPECT_EQ(run_tool("audit_network", "--trace"), 2);
  EXPECT_EQ(run_tool("rdlint", "--trace"), 2);

  // Arguments a report CLI cannot use are usage errors, not silently
  // dropped: a second directory, a lone address, a fourth positional, and
  // an option the tool does not have.
  const std::string net = network_dir();
  EXPECT_EQ(run_tool("audit_network", net + " " + net), 2);
  EXPECT_EQ(run_tool("simulate_convergence", net + " " + net), 2);
  EXPECT_EQ(run_tool("reachability_query", net + " 10.0.0.1"), 2);
  EXPECT_EQ(run_tool("reachability_query",
                     net + " 10.0.0.1 10.0.0.2 10.0.0.3"),
            2);
  EXPECT_EQ(run_tool("reachability_query", net + " --bogus"), 2);
  std::string err;
  EXPECT_EQ(run_tool_stderr("reachability_query", "--threads 2 " + net,
                            (dir_ / "reach-stderr").string(), &err),
            2);
  EXPECT_NE(err.find("unknown option '--threads'"), std::string::npos)
      << err;
}

TEST_F(CliExitCodesTest, GoodInvocationsStillExitZero) {
  // The guarded mains must not change the success leg: --help is exit 0.
  EXPECT_EQ(run_tool("audit_network", "--help"), 0);
  EXPECT_EQ(run_tool("rdlint", "--help"), 0);
  EXPECT_EQ(run_tool("rdd", "--help"), 0);
  EXPECT_EQ(run_tool("rdctl", "--help"), 0);
  EXPECT_EQ(run_tool("reachability_query", "--help"), 0);
  EXPECT_EQ(run_tool("reachability_query", "-h"), 0);
}

TEST_F(CliExitCodesTest, RdlintSeriesKeepsFileProvenance) {
  // Series mode emits the last snapshot's report; in every format it must
  // carry the same file names as a single-directory run over that snapshot.
  const std::string net = network_dir();
  const struct {
    const char* format;
    const char* provenance;  // config1's file name, as the format writes it
  } formats[] = {{"sarif", "\"uri\": \"config1\""},
                 {"json", "\"file\": \"config1\""},
                 {"text", "] config1:"}};
  for (const auto& [format, provenance] : formats) {
    std::string single;
    std::string series;
    const std::string flag = std::string("--format ") + format + " ";
    const int single_rc =
        run_tool_stdout("rdlint", flag + net,
                        (dir_ / "single.out").string(), &single);
    const int series_rc =
        run_tool_stdout("rdlint", flag + net + " " + net,
                        (dir_ / "series.out").string(), &series);
    EXPECT_NE(single.find(provenance), std::string::npos) << format;
    EXPECT_EQ(series, single) << format;
    EXPECT_EQ(series_rc, single_rc) << format;
  }
}

TEST_F(CliExitCodesTest, RdlintSeriesLabelsTrailingSlashDirectories) {
  // Each transition names its snapshots as the reports do (serve::
  // load_fleet): the directory's basename, or the whole path when a
  // trailing slash leaves the basename empty, never a blank label.
  const std::string net = network_dir() + "/";
  std::string err;
  run_tool_stderr("rdlint", net + " " + net,
                  (dir_ / "series-stderr").string(), &err);
  EXPECT_NE(err.find("snapshot " + net + " -> " + net + ": "),
            std::string::npos)
      << err;
}

TEST_F(CliExitCodesTest, EmptyDirectoryExitsTwoAndNamesIt) {
  // Every report CLI loads a directory the way rdd does, so a directory
  // with no config files is the same error everywhere: exit 2, and the
  // message names the directory.
  const std::string empty = (dir_ / "empty-dir").string();
  fs::create_directories(empty);
  for (const char* tool : {"audit_network", "rdlint", "reachability_query",
                           "simulate_convergence"}) {
    std::string err;
    EXPECT_EQ(run_tool_stderr(tool, empty, (dir_ / "empty-stderr").string(),
                              &err),
              2)
        << tool;
    EXPECT_NE(err.find("no configuration files in " + empty),
              std::string::npos)
        << tool << ": " << err;
  }
}

TEST_F(CliExitCodesTest, DaemonAndClientUsageErrorsExitTwo) {
  // rdd: missing fleet, missing listener, malformed --fleet spec, and a
  // fleet directory that is actually a file are all usage/I-O errors.
  EXPECT_EQ(run_tool("rdd", "--socket " + (dir_ / "s.sock").string()), 2);
  EXPECT_EQ(run_tool("rdd", "--fleet corp=" + dir_.string()), 2);
  EXPECT_EQ(run_tool("rdd", "--socket " + (dir_ / "s.sock").string() +
                                " --fleet corp"),
            2);
  EXPECT_EQ(run_tool("rdd", "--socket " + (dir_ / "s.sock").string() +
                                " --fleet corp=" + truncated_),
            2);
  EXPECT_EQ(run_tool("rdd", "--tcp 99999 --fleet corp=" + dir_.string()), 2);

  // rdctl: no op, no transport, both transports, dead socket.
  EXPECT_EQ(run_tool("rdctl", "--socket " + (dir_ / "s.sock").string()), 2);
  EXPECT_EQ(run_tool("rdctl", "ping"), 2);
  EXPECT_EQ(run_tool("rdctl", "--socket x --tcp 7440 ping"), 2);
  EXPECT_EQ(run_tool("rdctl",
                     "--socket " + (dir_ / "no-daemon.sock").string() +
                         " ping"),
            2);
}

TEST_F(CliExitCodesTest, ClientConnectFailureExplainsItselfOnStderr) {
  const std::string err_file = (dir_ / "rdctl-stderr").string();
  std::string err;

  // No daemon was ever at this path: exit 2 with the errno text and a hint
  // at the likely cause, not a bare "cannot connect".
  EXPECT_EQ(run_tool_stderr("rdctl",
                            "--socket " + (dir_ / "never.sock").string() +
                                " ping",
                            err_file, &err),
            2);
  EXPECT_NE(err.find("cannot connect"), std::string::npos) << err;
  EXPECT_NE(err.find("is rdd running?"), std::string::npos) << err;
  EXPECT_NE(err.find(std::strerror(ENOENT)), std::string::npos) << err;

  // A stale socket file — a daemon bound here once and died without
  // unlinking. connect(2) refuses; the message must name that errno.
  const std::string stale = (dir_ / "stale.sock").string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(stale.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, stale.c_str(), stale.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  ::close(fd);  // the file stays behind, but nobody is listening
  EXPECT_EQ(run_tool_stderr("rdctl", "--socket " + stale + " ping", err_file,
                            &err),
            2);
  EXPECT_NE(err.find("is rdd running?"), std::string::npos) << err;
  EXPECT_NE(err.find(std::strerror(ECONNREFUSED)), std::string::npos) << err;
}

TEST_F(CliExitCodesTest, SimulateConvergenceFlagParsing) {
  // --seed/--until go through cli::parse_u64_flag: trailing garbage,
  // overflow, and a missing value are all usage errors, never silent
  // truncation.
  EXPECT_EQ(run_tool("simulate_convergence", "--seed abc"), 2);
  EXPECT_EQ(run_tool("simulate_convergence", "--seed 12x"), 2);
  EXPECT_EQ(run_tool("simulate_convergence", "--seed -1"), 2);
  EXPECT_EQ(run_tool("simulate_convergence",
                     "--seed 99999999999999999999999999"),
            2);
  EXPECT_EQ(run_tool("simulate_convergence", "--seed"), 2);
  EXPECT_EQ(run_tool("simulate_convergence", "--until 10h"), 2);
  EXPECT_EQ(run_tool("simulate_convergence", "--until"), 2);
  EXPECT_EQ(run_tool("simulate_convergence", "--threads abc"), 2);
  EXPECT_EQ(run_tool("simulate_convergence", truncated_), 2);
  EXPECT_EQ(run_tool("simulate_convergence",
                     (dir_ / "does-not-exist").string()),
            2);
  EXPECT_EQ(run_tool("simulate_convergence", "--help"), 0);
  // rdctl shares the flag parser for the daemon-side simulate op.
  EXPECT_EQ(run_tool("rdctl", "--tcp 1 --seed abc simulate"), 2);
  EXPECT_EQ(run_tool("rdctl", "--tcp 1 --until 10h simulate"), 2);
}

}  // namespace
