#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/context.h"
#include "analysis/rules.h"
#include "graph/instances.h"
#include "model/network.h"
#include "pipeline/disk_store.h"
#include "pipeline/parse_cache.h"
#include "serve/protocol.h"
#include "util/thread_pool.h"

namespace rd::serve {

/// A loaded network: the parsed+built model, its instance graph and its
/// analysis context, constructed once by `load_fleet` and shared by every
/// report thereafter. The daemon holds one per resident fleet; each
/// one-shot report CLI holds one per network it reads. The context's facts
/// (the route fixpoint, the intent verdicts, the dataflow) are built by the
/// first report that reads each, never at load time, and are immutable
/// once built. `reachability`, `headerspace`, `audit` and `rdlint` read
/// them; `whatif` and `simulate` run fixpoints of their own.
struct ResidentFleet {
  ResidentFleet() = default;
  ResidentFleet(ResidentFleet&&) = default;
  /// Deleted: move assignment replaces the members in declaration order,
  /// so the old network would be freed while the old context still refers
  /// to it. Declare each fleet where it is loaded.
  ResidentFleet& operator=(ResidentFleet&&) = delete;

  /// The daemon's routing name (`rdd --fleet NAME=DIR`); empty elsewhere.
  std::string name;
  std::string directory;
  /// What reports call the network: the directory's basename (the whole
  /// path when the basename is empty). The fleet name is daemon-local
  /// routing, not part of the byte-identity contract.
  std::string report_name;
  std::size_t config_files = 0;
  std::unique_ptr<const model::Network> network;
  std::unique_ptr<const graph::InstanceGraph> graph;
  /// Declared after what it refers to, so it is destroyed first.
  std::unique_ptr<const analysis::Context> context;
};

/// The one construction of a network from configuration text, shared by
/// `Service::add_fleet` and the report CLIs (DESIGN.md §14): every
/// `config*` file of `directory` is read with its file name
/// (synth::load_network_texts_named), the model is built through `cache`
/// on `pool` (pipeline::build_network_cached), then its instance graph and
/// an empty analysis context. `name` is left empty. Throws
/// std::runtime_error("no configuration files in DIR") when the directory
/// has none, and std::filesystem errors when it cannot be read.
ResidentFleet load_fleet(const std::string& directory,
                         pipeline::ParseCache& cache, util::ThreadPool& pool);
/// The same from texts already in memory (the generated demos). `names` is
/// empty or has one entry per text, as build_network_cached takes it.
ResidentFleet load_fleet(const std::string& report_name,
                         const std::vector<std::string>& texts,
                         const std::vector<std::string>& names,
                         pipeline::ParseCache& cache, util::ThreadPool& pool);

/// The rdd request processor, transport-free: `handle` maps one Request to
/// one Response, so tests can drive the full dispatch path in-process and
/// the Server layer stays a thin socket loop. Determinism contract: for
/// every analysis op, `Response::output` is byte-identical to the matching
/// one-shot CLI's stdout, at every pool size and request interleaving —
/// the queries read only resident state that is immutable once built
/// (each context fact is built once, by whichever request asks first) and
/// use the fork/join pool.
/// Only `stats` reports scheduling-dependent numbers (latencies, queue
/// depth) and is excluded from that contract.
class Service {
 public:
  struct Options {
    std::size_t threads = 0;      // analysis concurrency (0 = default)
    std::string store_directory;  // parse-store path; empty = no persistence
    std::size_t cache_bytes = 0;  // ParseCache LRU cap; 0 = unbounded
  };

  /// Opens the store (throws std::runtime_error when its directory cannot
  /// be created) and arms the cache.
  explicit Service(const Options& options);

  /// Where a fleet's configs came from, cost-wise. The restart contract
  /// rides on this: a daemon restarted over an unchanged fleet with a
  /// store reports cold_parses == 0.
  struct LoadStats {
    std::size_t config_files = 0;
    std::size_t memory_hits = 0;  // served by the in-memory cache
    std::size_t disk_hits = 0;    // decoded from the persistent store
    std::size_t cold_parses = 0;  // parsed from text
    std::size_t routers = 0;
  };

  /// Load a fleet through `load_fleet` on the daemon's cache (+store) and
  /// pool, and retain it. Throws std::runtime_error on an unreadable/empty
  /// directory or a duplicate name. Not thread-safe against `handle`: load
  /// every fleet before serving.
  LoadStats add_fleet(const std::string& name, const std::string& directory);

  /// Process one request. Re-entrant over the resident fleets; called
  /// concurrently from the server's connection threads via the pool.
  Response handle(const Request& request);

  const std::vector<ResidentFleet>& fleets() const noexcept {
    return fleets_;
  }
  util::ThreadPool& pool() noexcept { return pool_; }
  pipeline::ParseCache& cache() noexcept { return cache_; }

  /// The stats endpoint's payload: request counts and p50/p99 latencies
  /// per op, cache and store counters, pool queue depth. Pretty-printed
  /// JSON with a trailing newline. Cold response-cache fills (the one-time
  /// per-(fleet, request) analysis build) are kept out of the percentiles
  /// and reported separately as `builds`/`build_ms` — a daemon that served
  /// one slow first audit and a thousand cache hits has a microsecond p99,
  /// not a multi-second one.
  std::string stats_json() const;

  /// Analysis responses served from the response cache (resident fleets
  /// are immutable, so every analysis response is a pure function of the
  /// request — the first computation's bytes are returned verbatim
  /// thereafter). Exposed for tests and the stats endpoint.
  std::size_t response_cache_hits() const;

 private:
  const ResidentFleet* find_fleet(const std::string& name) const;
  /// `build` marks a cold response-cache fill: its cost lands in the op's
  /// build ledger instead of the serving-latency percentiles.
  void record_latency(const std::string& op, double millis, bool build);

  util::ThreadPool pool_;
  std::unique_ptr<pipeline::DiskStore> store_;
  pipeline::ParseCache cache_;
  analysis::RuleEngine engine_;
  std::vector<ResidentFleet> fleets_;

  struct OpStats {
    std::string op;
    std::vector<double> latency_ms;  // cache hits and non-analysis ops
    std::vector<double> build_ms;    // cold fills, excluded from p50/p99
  };
  mutable std::mutex stats_mutex_;
  std::vector<OpStats> op_stats_;  // insertion-ordered by first request

  // Response cache: fleet + full request -> the Response computed the
  // first time. Entry count is capped (endpoint queries are client-chosen
  // and unbounded); past the cap new keys compute uncached rather than
  // evict — the parameterless ops that dominate warm traffic are always
  // among the first keys.
  static constexpr std::size_t kResponseCacheCap = 256;
  mutable std::mutex response_mutex_;
  std::unordered_map<std::string, Response> response_cache_;
  std::size_t response_hits_ = 0;
};

}  // namespace rd::serve
