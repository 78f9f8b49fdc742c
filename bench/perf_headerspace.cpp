// Symbolic header-space benchmarks (DESIGN.md §11): predicate-algebra
// throughput on real ACL shapes, full ingress/egress pair-predicate
// construction, and intent verification. The differential suite
// (symbolic_differential_test) proves the predicates agree with the
// concrete probe engine; these benchmarks track the cost of exactness.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "perf_main.h"

#include "analysis/header_space.h"
#include "analysis/reachability.h"
#include "config/parser.h"
#include "graph/instances.h"
#include "model/header_predicate.h"
#include "model/network.h"
#include "model/policy.h"
#include "synth/archetypes.h"
#include "synth/emit.h"

namespace {

using namespace rd;

struct Workload {
  model::Network network;
  graph::InstanceSet instances;
  analysis::ReachabilityAnalysis routes;
};

// A ~90-router managed enterprise, with edge filters and route policy —
// the same shape perf_reachability uses at scale 1. Built once.
const Workload& workload() {
  static const Workload* w = [] {
    synth::ManagedEnterpriseParams p;
    p.seed = 7;
    p.regions = 4;
    p.spokes_per_region = 20;
    p.ebgp_spoke_rate = 0.15;
    auto network = model::Network::build(
        synth::reparse(synth::make_managed_enterprise(p).configs));
    auto instances = graph::compute_instances(network);
    auto routes = analysis::ReachabilityAnalysis::run(network, instances);
    return new Workload{std::move(network), std::move(instances),
                        std::move(routes)};
  }();
  return *w;
}

// ACL lowering + self-equivalence: the subtract/emptiness path on every
// access list in the workload, the inner loop of HeaderSpace's filter
// lowering and of equivalence queries.
void BM_AclSelfEquivalence(benchmark::State& state) {
  const auto& w = workload();
  std::size_t acls = 0;
  for (auto _ : state) {
    acls = 0;
    for (const auto& cfg : w.network.routers()) {
      for (const auto& acl : cfg.access_lists) {
        model::ProtocolDomain domain;
        const model::SymbolicPacketFilter filter(acl, domain);
        model::ProtocolDomain domain_b;
        const model::SymbolicPacketFilter again(acl, domain_b);
        benchmark::DoNotOptimize(
            filter.permitted().equivalent(again.permitted()));
        ++acls;
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(acls));
  state.counters["acls"] = static_cast<double>(acls);
}
BENCHMARK(BM_AclSelfEquivalence)->Unit(benchmark::kMillisecond);

// Pair-predicate construction: a fresh HeaderSpace computing the exact
// packet set for the first N ingress interfaces against one egress.
void BM_PairPredicates(benchmark::State& state) {
  const auto& w = workload();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::size_t atoms = 0;
  for (auto _ : state) {
    analysis::HeaderSpace space(w.network, w.instances, w.routes);
    atoms = 0;
    const auto count = std::min(n, w.network.interfaces().size());
    for (std::size_t i = 0; i + 1 < count; ++i) {
      atoms += space
                   .pair_predicate(static_cast<model::InterfaceId>(i),
                                   static_cast<model::InterfaceId>(i + 1))
                   .atom_count();
    }
    benchmark::DoNotOptimize(atoms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_PairPredicates)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// Intent verification end-to-end on a small filtered fixture: parse,
// model, fixpoint, verify — the RD052 hot path.
void BM_IntentVerification(benchmark::State& state) {
  const std::string text =
      "hostname edge\n"
      "! rd-intent deny 10.1.0.0/24 10.3.0.0/24\n"
      "! rd-intent allow 10.1.0.0/24 10.2.0.0/24 udp 53\n"
      "interface FastEthernet0/0\n"
      " ip address 10.1.0.1 255.255.255.0\n"
      " ip access-group 101 in\n"
      "interface FastEthernet0/1\n"
      " ip address 10.2.0.1 255.255.255.0\n"
      "interface FastEthernet0/2\n"
      " ip address 10.3.0.1 255.255.255.0\n"
      "router ospf 1\n"
      " network 10.0.0.0 0.255.255.255 area 0\n"
      "access-list 101 deny ip any 10.3.0.0 0.0.0.255\n"
      "access-list 101 deny tcp any any eq 1433\n"
      "access-list 101 permit ip any any\n";
  auto network =
      model::Network::build({config::parse_config(text, "edge.cfg").config});
  const auto instances = graph::compute_instances(network);
  const auto routes = analysis::ReachabilityAnalysis::run(network, instances);
  const auto intents = analysis::collect_intents(network);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::verify_intents(network, instances, routes, intents));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(intents.size()));
}
BENCHMARK(BM_IntentVerification)->Unit(benchmark::kMicrosecond);

}  // namespace

RD_PERF_MAIN
