// Design-rule engine benchmarks: whole-registry runs (on a one-thread pool,
// the serial loop, and on wider ones) plus one timer per registered rule, so
// a regression in a single rule's cost is visible in isolation. The per-rule
// wall times the engine itself records (`RuleEngine::Result::timings`) are
// what `rdlint --timings` prints; BM_RuleEngine/rule/* cross-checks them
// under the benchmark harness's statistics.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "perf_main.h"

#include "analysis/dataflow.h"
#include "analysis/rules.h"
#include "config/parser.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "model/network.h"
#include "synth/archetypes.h"
#include "util/thread_pool.h"

namespace {

using namespace rd;

model::Network managed_network(std::uint32_t spokes_per_region) {
  synth::ManagedEnterpriseParams p;
  p.seed = 7;
  p.regions = 4;
  p.spokes_per_region = spokes_per_region;
  p.ebgp_spoke_rate = 0.15;
  std::vector<config::ParseResult> parses;
  for (const auto& cfg : synth::make_managed_enterprise(p).configs) {
    parses.push_back(config::parse_config(config::write_config(cfg)));
  }
  return model::Network::build_parsed(std::move(parses));
}

void BM_RuleEngine_Serial(benchmark::State& state) {
  const auto network =
      managed_network(static_cast<std::uint32_t>(state.range(0)));
  const auto graph = graph::InstanceGraph::build(network);
  const auto engine = analysis::RuleEngine::with_default_rules();
  util::ThreadPool serial(1);  // concurrency 1: the serial loop
  std::size_t findings = 0;
  for (auto _ : state) {
    auto result = engine.run(network, graph, serial);
    findings = result.findings.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["findings"] = static_cast<double>(findings);
}
BENCHMARK(BM_RuleEngine_Serial)->Arg(8)->Arg(24);

void BM_RuleEngine_Pool(benchmark::State& state) {
  const auto network = managed_network(16);
  const auto graph = graph::InstanceGraph::build(network);
  const auto engine = analysis::RuleEngine::with_default_rules();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = engine.run(network, graph, pool);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RuleEngine_Pool)->Arg(1)->Arg(2)->Arg(4);

// One benchmark per registered rule, named by rule id, so `--benchmark_
// filter=BM_RuleEngine/rule/RD04` isolates the cross-router rules. The
// instance graph is prebuilt; each iteration runs the rule body on a fresh
// context, so it also pays for any shared fact (fixpoint, intents,
// dataflow) the rule is the first to ask for.
void BM_RuleEngine_Rule(benchmark::State& state, const std::string& rule_id) {
  static const auto network = managed_network(16);
  static const auto graph = graph::InstanceGraph::build(network);
  static const auto engine = analysis::RuleEngine::with_default_rules();
  const analysis::RuleEngine::Rule* rule = nullptr;
  for (const auto& candidate : engine.rules()) {
    if (candidate.info.id == rule_id) rule = &candidate;
  }
  if (rule == nullptr) {
    state.SkipWithError("unknown rule id");
    return;
  }
  std::size_t findings = 0;
  for (auto _ : state) {
    const analysis::Context ctx(network, graph);
    auto out = rule->fn(ctx);
    findings = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["findings"] = static_cast<double>(findings);
}

const int kRegistered = [] {
  const auto engine = analysis::RuleEngine::with_default_rules();
  for (const auto& rule : engine.rules()) {
    benchmark::RegisterBenchmark(
        ("BM_RuleEngine/rule/" + rule.info.id).c_str(), BM_RuleEngine_Rule,
        rule.info.id);
  }
  return 0;
}();

// The redistribution-safety band (RD060-RD064) in isolation at fleet tier.
// The per-rule loop above already times each body on the 16-spoke network;
// this one scales the network instead, because the dataflow rules are the
// only ones whose cost grows with the number of *instances* rather than
// routers, and the managed archetype's instance count grows with spokes.
// Each iteration's fresh context builds the dataflow once for the band.
void BM_RedistributionBand(benchmark::State& state) {
  const auto network =
      managed_network(static_cast<std::uint32_t>(state.range(0)));
  const auto graph = graph::InstanceGraph::build(network);
  const auto engine = analysis::RuleEngine::with_default_rules();
  std::vector<const analysis::RuleEngine::Rule*> band;
  for (const auto& rule : engine.rules()) {
    if (rule.info.id >= "RD060" && rule.info.id <= "RD064") {
      band.push_back(&rule);
    }
  }
  std::size_t findings = 0;
  for (auto _ : state) {
    const analysis::Context ctx(network, graph);
    findings = 0;
    for (const auto* rule : band) {
      auto out = rule->fn(ctx);
      findings += out.size();
      benchmark::DoNotOptimize(out);
    }
  }
  state.counters["findings"] = static_cast<double>(findings);
  state.counters["rules"] = static_cast<double>(band.size());
}
BENCHMARK(BM_RedistributionBand)->Arg(8)->Arg(24);

// The fixpoint engine alone: edge discovery, seeding, and iteration to
// convergence. This is the fixed cost a run's context pays once, on first
// use, for RD060 and RD062 together.
void BM_InstanceDataflow(benchmark::State& state) {
  const auto network =
      managed_network(static_cast<std::uint32_t>(state.range(0)));
  const auto graph = graph::InstanceGraph::build(network);
  std::size_t facts = 0;
  for (auto _ : state) {
    analysis::InstanceDataflow flow(network, graph);
    facts = flow.fact_count();
    benchmark::DoNotOptimize(flow);
  }
  state.counters["facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_InstanceDataflow)->Arg(8)->Arg(24);

}  // namespace

RD_PERF_MAIN
