// Reachability-engine benchmarks: the naïve full-rescan fixpoint (the
// differential oracle `reference::run_naive` from
// tests/fixpoint_reference.h — no product path reaches it) vs the
// semi-naïve delta-propagation engine behind ReachabilityAnalysis
// (DESIGN.md §9) at three scales, plus the parallel what-if sweep built on
// top of the faster core. The differential test suite
// (reachability_differential_test) proves the two engines produce identical
// outputs; these benchmarks measure the gap — EXPERIMENTS.md records the
// headline numbers.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "perf_main.h"

#include "analysis/propagation.h"
#include "analysis/reachability.h"
#include "analysis/whatif.h"
#include "fixpoint_reference.h"
#include "graph/instances.h"
#include "model/network.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/thread_pool.h"

namespace {

using namespace rd;

struct Workload {
  std::string name;
  model::Network network;
  graph::InstanceSet instances;
  analysis::ReachabilityAnalysis::Options options;
};

Workload make_workload(std::string name, const synth::SynthNetwork& net,
                       std::vector<ip::Prefix> external = {}) {
  auto network = model::Network::build(synth::reparse(net.configs));
  auto instances = graph::compute_instances(network);
  Workload w{std::move(name), std::move(network), std::move(instances), {}};
  w.options.external_prefixes = std::move(external);
  return w;
}

// scale 0: the 15-router net15 case study; scale 1: a ~90-router managed
// enterprise; scale 2: a fleet-scale managed enterprise (8 regions x 40
// spokes). Built once and shared across benchmarks.
const Workload& workload(std::int64_t scale) {
  static const std::vector<Workload>* all = [] {
    auto* w = new std::vector<Workload>;
    {
      const auto plan = synth::net15_plan();
      w->push_back(make_workload(
          "net15", synth::make_net15(),
          {plan.ab0, plan.external_left, plan.external_right}));
    }
    {
      synth::ManagedEnterpriseParams p;
      p.seed = 7;
      p.regions = 4;
      p.spokes_per_region = 20;
      p.ebgp_spoke_rate = 0.15;
      w->push_back(make_workload("managed", synth::make_managed_enterprise(p)));
    }
    {
      synth::ManagedEnterpriseParams p;
      p.seed = 7;
      p.regions = 8;
      p.spokes_per_region = 40;
      p.ebgp_spoke_rate = 0.15;
      w->push_back(make_workload("fleet", synth::make_managed_enterprise(p)));
    }
    return w;
  }();
  return (*all)[static_cast<std::size_t>(scale)];
}

/// Times one fixpoint per iteration; `fixpoint(w)` returns the total
/// route count over all instances.
template <typename Fixpoint>
void run_fixpoint(benchmark::State& state, Fixpoint fixpoint) {
  const Workload& w = workload(state.range(0));
  std::size_t total_routes = 0;
  for (auto _ : state) {
    total_routes = fixpoint(w);
    benchmark::DoNotOptimize(total_routes);
  }
  // routes/sec: fixpoint output routes per wall-second, the engines' common
  // denominator across scales.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_routes));
  state.SetLabel(w.name);
  state.counters["routers"] = static_cast<double>(w.network.router_count());
  state.counters["routes"] = static_cast<double>(total_routes);
}

void BM_Fixpoint_Naive(benchmark::State& state) {
  // The Problem ReachabilityAnalysis::run evaluates, handed to the oracle.
  run_fixpoint(state, [](const Workload& w) {
    namespace prop = analysis::prop;
    const auto problem = prop::discover(
        w.network, w.instances, {},
        prop::external_universe(w.network, w.options.external_prefixes));
    std::size_t total = 0;
    for (const auto& routes : analysis::reference::run_naive(problem).routes) {
      total += routes.size();
    }
    return total;
  });
}
BENCHMARK(BM_Fixpoint_Naive)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_Fixpoint_SemiNaive(benchmark::State& state) {
  run_fixpoint(state, [](const Workload& w) {
    const auto reach =
        analysis::ReachabilityAnalysis::run(w.network, w.instances, w.options);
    std::size_t total = 0;
    for (std::uint32_t i = 0; i < w.instances.instances.size(); ++i) {
      total += reach.instance_routes(i).size();
    }
    return total;
  });
}
BENCHMARK(BM_Fixpoint_SemiNaive)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The §8.1 what-if sweep: one counted fixpoint per single-failure scenario,
// each on the scenario's failure Problem (the intact network's Problem with
// the survivors re-closed and the failed router masked; no network is
// rebuilt), fanned out on the thread pool (results identical at any thread
// count — the differential suite checks). Arg = thread count.
void BM_WhatIfSweep(benchmark::State& state) {
  const Workload& w = workload(1);
  const auto graph = graph::InstanceGraph::build(w.network);
  auto scenarios = analysis::single_failure_scenarios(w.network, graph);
  if (scenarios.empty()) {
    scenarios.push_back({w.network.routers()[0].hostname, {0}});
  }
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::sweep_failure_scenarios(
        w.network, w.instances, scenarios, w.options, pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
  state.counters["scenarios"] = static_cast<double>(scenarios.size());
  state.counters["threads"] = static_cast<double>(pool.size());
  state.SetLabel(w.name);
}
BENCHMARK(BM_WhatIfSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

RD_PERF_MAIN
