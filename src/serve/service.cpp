#include "serve/service.h"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "pipeline/series.h"
#include "serve/queries.h"
#include "synth/emit.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/stats.h"

namespace rd::serve {

Service::Service(const Options& options)
    : pool_(options.threads),
      engine_(analysis::RuleEngine::with_default_rules()) {
  if (!options.store_directory.empty()) {
    store_ = std::make_unique<pipeline::DiskStore>(options.store_directory);
    cache_.attach_store(store_.get());
  }
  if (options.cache_bytes > 0) cache_.set_byte_limit(options.cache_bytes);
}

ResidentFleet load_fleet(const std::string& report_name,
                         const std::vector<std::string>& texts,
                         const std::vector<std::string>& names,
                         pipeline::ParseCache& cache, util::ThreadPool& pool) {
  ResidentFleet fleet;
  fleet.report_name = report_name;
  fleet.config_files = texts.size();
  fleet.network = std::make_unique<const model::Network>(
      pipeline::build_network_cached(texts, names, cache, pool));
  fleet.graph = std::make_unique<const graph::InstanceGraph>(
      graph::InstanceGraph::build(*fleet.network));
  fleet.context =
      std::make_unique<const analysis::Context>(*fleet.network, *fleet.graph);
  return fleet;
}

ResidentFleet load_fleet(const std::string& directory,
                         pipeline::ParseCache& cache, util::ThreadPool& pool) {
  const auto loaded = synth::load_network_texts_named(directory);
  if (loaded.texts.empty()) {
    throw std::runtime_error("no configuration files in " + directory);
  }
  std::string report_name =
      std::filesystem::path(directory).filename().string();
  if (report_name.empty()) report_name = directory;
  auto fleet =
      load_fleet(report_name, loaded.texts, loaded.names, cache, pool);
  fleet.directory = directory;
  return fleet;
}

Service::LoadStats Service::add_fleet(const std::string& name,
                                      const std::string& directory) {
  if (find_fleet(name) != nullptr) {
    throw std::runtime_error("fleet '" + name + "' already loaded");
  }
  const auto before = cache_.stats();
  auto fleet = load_fleet(directory, cache_, pool_);
  const auto after = cache_.stats();
  fleet.name = name;

  LoadStats stats;
  stats.config_files = fleet.config_files;
  stats.memory_hits = after.hits - before.hits;
  stats.disk_hits = after.disk_hits - before.disk_hits;
  stats.cold_parses = after.misses - before.misses;
  stats.routers = fleet.network->router_count();
  fleets_.push_back(std::move(fleet));
  return stats;
}

const ResidentFleet* Service::find_fleet(const std::string& name) const {
  if (name.empty()) {
    // An unnamed request binds to a lone fleet; ambiguous otherwise.
    return fleets_.size() == 1 ? &fleets_[0] : nullptr;
  }
  for (const auto& fleet : fleets_) {
    if (fleet.name == name) return &fleet;
  }
  return nullptr;
}

void Service::record_latency(const std::string& op, double millis,
                             bool build) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (auto& entry : op_stats_) {
    if (entry.op == op) {
      (build ? entry.build_ms : entry.latency_ms).push_back(millis);
      return;
    }
  }
  op_stats_.push_back(build ? OpStats{op, {}, {millis}}
                            : OpStats{op, {millis}, {}});
}

Response Service::handle(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  // obs::Span keeps a view of its name: the string must outlive the span.
  const std::string span_name = "serve." + request.op;
  obs::Span span(span_name, "serve");

  Response response;
  const auto from_query = [&response](QueryResult qr) {
    response.output = std::move(qr.output);
    response.error = std::move(qr.error);
    response.exit_code = qr.exit_code;
    response.ok = qr.exit_code != 2;
  };

  if (request.op == "ping") {
    response.output = "pong\n";
  } else if (request.op == "shutdown") {
    // The transport layer watches for this op and stops accepting after
    // the reply is on the wire; the service side just acknowledges.
    response.output = "shutting down\n";
  } else if (request.op == "fleets") {
    for (const auto& fleet : fleets_) {
      util::appendf(response.output, "%s: %zu configs, %zu routers (%s)\n",
                    fleet.name.c_str(), fleet.config_files,
                    fleet.network->router_count(), fleet.directory.c_str());
    }
  } else if (request.op == "stats") {
    response.output = stats_json();
  } else if (request.op == "audit" || request.op == "whatif" ||
             request.op == "rdlint" || request.op == "reachability" ||
             request.op == "headerspace" || request.op == "simulate") {
    const auto* fleet = find_fleet(request.fleet);
    // Resident fleets never change, so an analysis response is a pure
    // function of (fleet, request): serve repeats from the first
    // computation's bytes. '\0' separators keep distinct requests from
    // colliding ("a"+"bc" vs "ab"+"c"). seed/until are part of the key —
    // two simulations with different seeds are different pure functions.
    std::string cache_key;
    if (fleet != nullptr) {
      const std::string seed = std::to_string(request.seed);
      const std::string until = std::to_string(request.until_ms);
      cache_key.reserve(fleet->name.size() + request.op.size() +
                        request.format.size() + request.source.size() +
                        request.destination.size() + seed.size() +
                        until.size() + 7);
      for (const auto* part : {&fleet->name, &request.op, &request.format,
                               &request.source, &request.destination, &seed,
                               &until}) {
        cache_key += *part;
        cache_key += '\0';
      }
      std::lock_guard<std::mutex> lock(response_mutex_);
      if (const auto it = response_cache_.find(cache_key);
          it != response_cache_.end()) {
        ++response_hits_;
        response = it->second;
        const auto elapsed = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        record_latency(request.op, elapsed, /*build=*/false);
        return response;
      }
    }
    if (fleet == nullptr) {
      response.ok = false;
      response.exit_code = 2;
      if (request.fleet.empty()) {
        response.error = fleets_.empty()
                             ? "no fleets loaded\n"
                             : "several fleets loaded; name one with "
                               "--fleet\n";
      } else {
        response.error = "unknown fleet '" + request.fleet + "'\n";
      }
    } else if (request.op == "audit") {
      from_query(audit_report(*fleet->context, pool_));
    } else if (request.op == "whatif") {
      from_query(whatif_report(*fleet->network, *fleet->graph, pool_));
    } else if (request.op == "rdlint") {
      const auto format = lint_format_from(request.format);
      if (!format) {
        response.ok = false;
        response.exit_code = 2;
        response.error = "unknown format '" + request.format + "'\n";
      } else {
        from_query(lint_report(*fleet->context, engine_, fleet->report_name,
                               *format, pool_));
      }
    } else if (request.op == "simulate") {
      from_query(simulate_report(*fleet->network, *fleet->graph,
                                 request.seed, request.until_ms, pool_));
    } else {
      ReachabilityRequest reach;
      reach.symbolic = request.op == "headerspace";
      reach.source = request.source;
      reach.destination = request.destination;
      from_query(reachability_report(*fleet->context, reach));
    }
    if (fleet != nullptr) {
      std::lock_guard<std::mutex> lock(response_mutex_);
      if (response_cache_.size() < kResponseCacheCap) {
        response_cache_.emplace(std::move(cache_key), response);
      }
      const auto elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      record_latency(request.op, elapsed, /*build=*/true);
      return response;
    }
  } else {
    response.ok = false;
    response.exit_code = 2;
    response.error = "unknown op '" + request.op + "'\n";
  }

  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  record_latency(request.op, elapsed, /*build=*/false);
  return response;
}

std::size_t Service::response_cache_hits() const {
  std::lock_guard<std::mutex> lock(response_mutex_);
  return response_hits_;
}

std::string Service::stats_json() const {
  auto doc = util::Json::object();

  auto ops = util::Json::array();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const auto& entry : op_stats_) {
      auto op = util::Json::object();
      op.set("op", entry.op);
      op.set("count", entry.latency_ms.size() + entry.build_ms.size());
      // Percentiles cover served requests only; the one-time cold fills
      // would otherwise dominate p99 forever on a warm daemon.
      op.set("p50_ms", util::quantile(entry.latency_ms, 0.50));
      op.set("p99_ms", util::quantile(entry.latency_ms, 0.99));
      op.set("builds", entry.build_ms.size());
      double build_total = 0.0;
      for (const auto ms : entry.build_ms) build_total += ms;
      op.set("build_ms", build_total);
      ops.push_back(std::move(op));
    }
  }
  doc.set("ops", std::move(ops));

  const auto cache_stats = cache_.stats();
  auto cache = util::Json::object();
  cache.set("hits", cache_stats.hits);
  cache.set("misses", cache_stats.misses);
  cache.set("disk_hits", cache_stats.disk_hits);
  cache.set("disk_rejects", cache_stats.disk_rejects);
  cache.set("entries", cache_stats.entries);
  cache.set("bytes", cache_stats.bytes);
  cache.set("byte_limit", cache_stats.byte_limit);
  cache.set("evictions", cache_stats.evictions);
  doc.set("parse_cache", std::move(cache));

  auto responses = util::Json::object();
  {
    std::lock_guard<std::mutex> lock(response_mutex_);
    responses.set("hits", response_hits_);
    responses.set("entries", response_cache_.size());
  }
  doc.set("response_cache", std::move(responses));

  if (store_ != nullptr) {
    const auto store_stats = store_->stats();
    auto store = util::Json::object();
    store.set("directory", store_->directory().string());
    store.set("loads", store_stats.loads);
    store.set("load_hits", store_stats.load_hits);
    store.set("load_rejects", store_stats.load_rejects);
    store.set("saves", store_stats.saves);
    store.set("save_failures", store_stats.save_failures);
    doc.set("parse_store", std::move(store));
  }

  auto pool = util::Json::object();
  pool.set("threads", pool_.size());
  pool.set("queue_depth", pool_.queue_depth());
  doc.set("pool", std::move(pool));

  auto fleets = util::Json::array();
  for (const auto& fleet : fleets_) {
    auto entry = util::Json::object();
    entry.set("name", fleet.name);
    entry.set("configs", fleet.config_files);
    entry.set("routers", fleet.network->router_count());
    fleets.push_back(std::move(entry));
  }
  doc.set("fleets", std::move(fleets));

  return doc.dump(2) + "\n";
}

}  // namespace rd::serve
