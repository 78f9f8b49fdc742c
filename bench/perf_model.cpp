// Model-core benchmarks (ROADMAP item 2: raw speed): the flattened
// structure-of-arrays lexer and Network::build — plus the ~100k-router
// mega tier. The mega benchmarks are env-gated (RD_MEGA_ROUTERS=<count>)
// so `--check` and routine runs stay fast on small machines; EXPERIMENTS.md
// records the one-off mega numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "perf_main.h"

#include "analysis/reachability.h"
#include "config/ast.h"
#include "config/lexer.h"
#include "config/parser.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "model/network.h"
#include "pipeline/pipeline.h"
#include "synth/archetypes.h"
#include "util/thread_pool.h"

namespace {

using namespace rd;

// The fleet tier shared by the small benchmarks: 8 regions x 40 spokes
// (the same workload perf_reachability's scale 2 uses).
const std::vector<std::string>& fleet_texts() {
  static const std::vector<std::string>* texts = [] {
    synth::ManagedEnterpriseParams p;
    p.seed = 7;
    p.regions = 8;
    p.spokes_per_region = 40;
    p.ebgp_spoke_rate = 0.15;
    const auto net = synth::make_managed_enterprise(p);
    auto* out = new std::vector<std::string>;
    out->reserve(net.configs.size());
    for (const auto& config : net.configs) {
      out->push_back(config::write_config(config));
    }
    return out;
  }();
  return *texts;
}

const std::vector<config::RouterConfig>& fleet_configs() {
  static const std::vector<config::RouterConfig>* configs = [] {
    auto* out = new std::vector<config::RouterConfig>;
    for (const auto& text : fleet_texts()) {
      out->push_back(config::parse_config(text).config);
    }
    return out;
  }();
  return *configs;
}

// --- lexer ------------------------------------------------------------------

void BM_LexFleet(benchmark::State& state) {
  const auto& texts = fleet_texts();
  std::size_t tokens = 0;
  for (auto _ : state) {
    tokens = 0;
    for (const auto& text : texts) {
      const auto lexed = config::lex(text);
      tokens += lexed.token_storage.size();
      benchmark::DoNotOptimize(lexed.lines.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tokens));
  state.counters["configs"] = static_cast<double>(texts.size());
  state.counters["tokens"] = static_cast<double>(tokens);
}
BENCHMARK(BM_LexFleet);

// --- model build ------------------------------------------------------------

void BM_BuildModel(benchmark::State& state) {
  const auto& configs = fleet_configs();
  std::size_t routers = 0;
  for (auto _ : state) {
    auto copy = configs;  // build() consumes its input
    const auto network = model::Network::build(std::move(copy));
    routers = network.router_count();
    benchmark::DoNotOptimize(routers);
  }
  state.counters["routers"] = static_cast<double>(routers);
}
BENCHMARK(BM_BuildModel)->Unit(benchmark::kMillisecond);

// --- mega tier (~100k routers, env-gated) -----------------------------------

// Built once per process and shared; the synth + parse + build of a 100k
// network takes minutes on one core, so the gate is an env var rather than
// a benchmark arg: RD_MEGA_ROUTERS=100000 ./perf_model
// --benchmark_filter=Mega --benchmark_min_time=1x
struct MegaWorkload {
  model::Network network;
  graph::InstanceSet instances;
};

std::uint32_t mega_target() {
  const char* env = std::getenv("RD_MEGA_ROUTERS");
  if (env == nullptr || *env == '\0') return 0;
  const long value = std::strtol(env, nullptr, 10);
  return value > 0 ? static_cast<std::uint32_t>(value) : 0;
}

const std::vector<std::string>& mega_texts() {
  static const std::vector<std::string>* texts = [] {
    synth::MegaTierParams p;
    p.target_routers = mega_target();
    const auto net = synth::make_mega_tier(p);
    auto* out = new std::vector<std::string>;
    out->reserve(net.configs.size());
    for (const auto& config : net.configs) {
      out->push_back(config::write_config(config));
    }
    return out;
  }();
  return *texts;
}

const MegaWorkload& mega_workload() {
  static const MegaWorkload* w = [] {
    auto network = pipeline::build_network_serial(mega_texts());
    auto instances = graph::compute_instances(network);
    return new MegaWorkload{std::move(network), std::move(instances)};
  }();
  return *w;
}

bool mega_enabled(benchmark::State& state) {
  if (mega_target() != 0) return true;
  state.SetLabel("skipped: set RD_MEGA_ROUTERS=<count>");
  for (auto _ : state) {
  }
  return false;
}

// The full model-ingest path at mega scale: lex + parse + Network::build
// over pre-serialized config texts.
void BM_MegaBuild(benchmark::State& state) {
  if (!mega_enabled(state)) return;
  const auto& texts = mega_texts();
  std::size_t routers = 0;
  for (auto _ : state) {
    const auto network = pipeline::build_network_serial(texts);
    routers = network.router_count();
    benchmark::DoNotOptimize(routers);
  }
  state.counters["routers"] = static_cast<double>(routers);
}
BENCHMARK(BM_MegaBuild)->Unit(benchmark::kMillisecond);

// Reachability on one mega network. Held routes grow superlinearly with
// single-network size (every external route reaches every instance:
// 88 routers -> 18.4k routes, 341 -> 352.6k), so dial RD_MEGA_ROUTERS to
// what materialized route memory allows — the 100k-*fleet* numbers come
// from BM_MegaFleet below, which is the paper's actual many-networks
// setting and scales linearly.
void BM_MegaReachability(benchmark::State& state) {
  if (!mega_enabled(state)) return;
  const MegaWorkload& w = mega_workload();
  analysis::ReachabilityAnalysis::Options options;
  std::size_t total_routes = 0;
  for (auto _ : state) {
    const auto reach =
        analysis::ReachabilityAnalysis::run(w.network, w.instances, options);
    total_routes = 0;
    for (std::uint32_t i = 0; i < w.instances.instances.size(); ++i) {
      total_routes += reach.instance_routes(i).size();
    }
    benchmark::DoNotOptimize(total_routes);
  }
  state.counters["routers"] = static_cast<double>(w.network.router_count());
  state.counters["routes"] = static_cast<double>(total_routes);
}
BENCHMARK(BM_MegaReachability)->Unit(benchmark::kMillisecond);

// The ~100k-router fleet: RD_MEGA_ROUTERS total routers split into
// fleet-tier managed networks (341 routers each, the perf_reachability
// scale-2 workload), run through the full parse + build + analyze
// pipeline. Arg = thread count.
void BM_MegaFleet(benchmark::State& state) {
  if (!mega_enabled(state)) return;
  static const std::vector<pipeline::FleetInput>* inputs = [] {
    auto* in = new std::vector<pipeline::FleetInput>;
    const std::uint32_t networks =
        std::max<std::uint32_t>(1, mega_target() / 341);
    for (std::uint32_t i = 0; i < networks; ++i) {
      synth::ManagedEnterpriseParams p;
      p.seed = 7 + i;  // distinct networks, deterministic fleet
      p.name = "mega-" + std::to_string(i);
      p.regions = 8;
      p.spokes_per_region = 40;
      p.ebgp_spoke_rate = 0.15;
      const auto net = synth::make_managed_enterprise(p);
      pipeline::FleetInput input;
      input.name = net.name;
      for (const auto& config : net.configs) {
        input.texts.push_back(config::write_config(config));
      }
      in->push_back(std::move(input));
    }
    return in;
  }();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::size_t routers = 0;
  for (auto _ : state) {
    const auto reports = pipeline::analyze_fleet_parallel(*inputs, pool);
    routers = 0;
    for (const auto& r : reports) routers += r.routers;
    benchmark::DoNotOptimize(routers);
  }
  state.counters["networks"] = static_cast<double>(inputs->size());
  state.counters["routers"] = static_cast<double>(routers);
  state.counters["threads"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_MegaFleet)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

RD_PERF_MAIN
