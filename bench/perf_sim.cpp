// Convergence-simulator performance tiers (DESIGN.md §15): one scenario on
// the demo enterprise, the event-queue hot path in isolation, the demo
// sweep at 1 and 4 threads (at demo size that measures pool dispatch),
// and the sweep over the 260-router managed enterprise that rdd's
// `simulate` requests run in the daemon benchmark — the tier where the
// protocol engine, not dispatch, sets the time. EXPERIMENTS.md's fleet
// distributions come from `simulate_convergence --fleet`; these
// benchmarks keep the per-scenario cost visible so a protocol-engine
// regression shows up as a number, not as a CI timeout.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "perf_main.h"

#include "graph/instances.h"
#include "model/network.h"
#include "sim/event_queue.h"
#include "sim/sweep.h"
#include "synth/archetypes.h"
#include "util/thread_pool.h"

namespace {

using namespace rd;

struct SimNet {
  model::Network network;
  graph::InstanceGraph graph;
};

const SimNet* build_net(const synth::SynthNetwork& synth) {
  auto network = model::Network::build(synth.configs);
  auto graph = graph::InstanceGraph::build(network);
  return new SimNet{std::move(network), std::move(graph)};
}

const SimNet& demo_net() {
  static const SimNet* net = [] {
    synth::TextbookEnterpriseParams params;
    params.routers = 24;
    params.border_routers = 2;
    params.igp_instances = 2;
    return build_net(synth::make_textbook_enterprise(params));
  }();
  return *net;
}

/// The managed enterprise at generator seed 1 (260 routers, mutual
/// BGP <-> EIGRP redistribution): the daemon benchmark's `mgd` fleet.
const SimNet& managed_net() {
  static const SimNet* net = [] {
    synth::ManagedEnterpriseParams params;
    params.seed = 1;
    return build_net(synth::make_managed_enterprise(params));
  }();
  return *net;
}

// One full flap scenario, cross-check included: what each entry in a sweep
// costs end to end (seeded event loop + two static fixpoints to diff
// against).
void BM_SimScenario(benchmark::State& state) {
  const auto& net = demo_net();
  const auto scenarios = sim::flap_scenarios(net.network, net.graph, 1);
  util::ThreadPool pool(1);
  sim::SweepOptions options;
  options.max_scenarios = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sweep_scenarios(
        net.network, net.graph.set, scenarios, options, pool));
  }
  state.counters["scenarios"] = static_cast<double>(scenarios.size());
}
BENCHMARK(BM_SimScenario);

// The demo's whole sweep at 1 vs 4 threads. Its scenarios take well under
// a millisecond each, so the /4 figure is pool dispatch; the managed tier
// below is where scenario-level parallelism, the simulator's only
// concurrency, shows its scaling.
void BM_SimSweep(benchmark::State& state) {
  const auto& net = demo_net();
  const auto scenarios = sim::flap_scenarios(net.network, net.graph, 0);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  sim::SweepOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sweep_scenarios(
        net.network, net.graph.set, scenarios, options, pool));
  }
  state.counters["scenarios"] = static_cast<double>(scenarios.size());
}
BENCHMARK(BM_SimSweep)->Arg(1)->Arg(4);

// The managed enterprise's whole sweep (baseline plus 10 flaps), what one
// rdd `simulate` request on it computes. `repeat_share` is the fraction
// of deliveries answered as repeats (DESIGN.md §15).
void BM_SimSweep_Managed(benchmark::State& state) {
  const auto& net = managed_net();
  const auto scenarios = sim::flap_scenarios(net.network, net.graph, 0);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  sim::SweepOptions options;
  std::size_t deliveries = 0;
  std::size_t repeats = 0;
  for (auto _ : state) {
    const auto results = sim::sweep_scenarios(net.network, net.graph.set,
                                              scenarios, options, pool);
    benchmark::DoNotOptimize(results);
    deliveries = 0;
    repeats = 0;
    for (const auto& result : results) {
      deliveries += result.updates_delivered;
      repeats += result.repeat_deliveries;
    }
  }
  state.counters["scenarios"] = static_cast<double>(scenarios.size());
  state.counters["deliveries"] = static_cast<double>(deliveries);
  state.counters["repeat_share"] =
      deliveries == 0 ? 0.0
                      : static_cast<double>(repeats) /
                            static_cast<double>(deliveries);
}
BENCHMARK(BM_SimSweep_Managed)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// The event queue alone: push/pop of a payload-free event mix with heavy
// same-timestamp ties — the structure every simulated millisecond funnels
// through.
void BM_SimEventQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      sim::Event event;
      event.at_ms = (i * 7) % 64;  // many ties: seq ordering does real work
      event.instance = static_cast<std::uint32_t>(i);
      queue.push(event);
    }
    std::uint64_t sum = 0;
    while (!queue.empty()) sum += queue.pop().at_ms;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimEventQueue)->Arg(1024)->Arg(65536);

}  // namespace

RD_PERF_MAIN
