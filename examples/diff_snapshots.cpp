// Longitudinal design comparison (paper §8.2): given snapshots of a
// network's configuration files, report what changed at the routing-design
// level — equipment, topology, processes, instances, and policies.
//
// Usage:
//   diff_snapshots <dir-before> <dir-after>
//   diff_snapshots --series <dir1> <dir2> [<dir3> ...]
//                              # N ordered snapshots through the incremental
//                              # series pipeline (content-addressed parse
//                              # cache; per-snapshot reports + diff chain)
//   diff_snapshots             # demo: a managed enterprise before/after a
//                              # region decommissioning + policy change

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/evolution.h"
#include "cli_util.h"
#include "config/parser.h"
#include "config/writer.h"
#include "model/network.h"
#include "pipeline/parse_cache.h"
#include "pipeline/series.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/thread_pool.h"

namespace {

void print_diff(const rd::analysis::DesignDiff& diff) {
  std::printf("design changed: %s\n\n",
              diff.design_changed() ? "YES" : "no");
  std::printf("equipment:\n");
  std::printf("  added routers:   %zu\n", diff.added_routers.size());
  for (const auto& name : diff.added_routers) {
    std::printf("    + %s\n", name.c_str());
  }
  std::printf("  removed routers: %zu\n", diff.removed_routers.size());
  for (const auto& name : diff.removed_routers) {
    std::printf("    - %s\n", name.c_str());
  }
  std::printf("\nper-router changes (matched by hostname):\n");
  std::printf("  interface changes:    %zu routers\n",
              diff.routers_with_interface_changes);
  std::printf("  process changes:      %zu routers\n",
              diff.routers_with_process_changes);
  std::printf("  policy changes:       %zu routers\n",
              diff.routers_with_policy_changes);
  std::printf("  static-route changes: %zu routers\n",
              diff.routers_with_static_route_changes);
  std::printf("\ntopology: links %zu -> %zu\n", diff.links_before,
              diff.links_after);
  std::printf("routing instances: %zu -> %zu\n", diff.instances_before,
              diff.instances_after);
  for (const auto& inst : diff.appeared_instances) {
    std::printf("  appeared:    %s\n", inst.c_str());
  }
  for (const auto& inst : diff.disappeared_instances) {
    std::printf("  disappeared: %s\n", inst.c_str());
  }
}

int run_series(int argc, char** argv) {
  using namespace rd;
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: diff_snapshots --series <dir1> <dir2> [<dir3> ...]\n");
    return 2;
  }
  std::vector<pipeline::SnapshotInput> series;
  for (int i = 2; i < argc; ++i) {
    pipeline::SnapshotInput snapshot;
    snapshot.name = argv[i];
    snapshot.texts = synth::load_network_texts(argv[i]);
    if (snapshot.texts.empty()) {
      std::fprintf(stderr, "no config* files in %s\n", argv[i]);
      return 2;
    }
    series.push_back(std::move(snapshot));
  }

  pipeline::ParseCache cache;
  util::ThreadPool pool;
  const auto report = pipeline::analyze_snapshot_series(series, cache, pool);

  for (std::size_t i = 0; i < report.snapshots.size(); ++i) {
    const auto& snap = report.snapshots[i];
    std::printf("snapshot %zu: %s\n", i, snap.report.name.c_str());
    std::printf(
        "  archetype %s; %zu routers, %zu links, %zu instances\n",
        snap.report.archetype.c_str(), snap.report.routers,
        snap.report.links, snap.report.instances);
    std::printf("  findings: %zu consistency, %zu lint; "
                "%zu parse diagnostics\n",
                snap.report.consistency_findings, snap.report.lint_findings,
                snap.report.parse_diagnostics);
    std::printf("  parse cache: %zu hits, %zu misses\n", snap.cache_hits,
                snap.cache_misses);
    if (i > 0) {
      std::printf("\n--- diff %s -> %s ---\n",
                  report.snapshots[i - 1].report.name.c_str(),
                  snap.report.name.c_str());
      print_diff(report.diffs[i - 1]);
    }
    std::printf("\n");
  }
  const auto stats = cache.stats();
  std::printf(
      "parse cache totals: %zu hits, %zu misses, %zu entries"
      " (%zu duplicate parses discarded)\n",
      stats.hits, stats.misses, stats.entries, stats.duplicate_parses);
  return 0;
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace rd;

  if (argc > 1 && std::string(argv[1]) == "--series") {
    return run_series(argc, argv);
  }
  if (argc == 2) {
    std::fprintf(stderr, "usage: diff_snapshots <dir-before> <dir-after>\n"
                         "       diff_snapshots --series <dir1> <dir2> ...\n"
                         "       diff_snapshots              (demo mode)\n");
    return 2;
  }

  model::Network before = model::Network::build({});
  model::Network after = model::Network::build({});
  if (argc > 2) {
    before = model::Network::build(synth::load_network(argv[1]));
    after = model::Network::build(synth::load_network(argv[2]));
  } else {
    // Demo: snapshot 1 is a 2-region managed enterprise; snapshot 2 drops
    // three spokes, adds one, and tightens a policy — the kind of churn
    // §8.2 describes.
    synth::ManagedEnterpriseParams params;
    params.regions = 2;
    params.spokes_per_region = 10;
    auto net = synth::make_managed_enterprise(params);
    before = model::Network::build(synth::reparse(net.configs));

    auto evolved = net.configs;
    evolved.erase(evolved.end() - 3, evolved.end());  // decommissioned spokes
    config::RouterConfig newcomer;
    newcomer.hostname = "managed-new-site";
    config::InterfaceConfig itf;
    itf.name = "FastEthernet0/0";
    itf.address = {*ip::Ipv4Address::parse("10.77.0.1"),
                   ip::Netmask::from_length(24)};
    newcomer.interfaces.push_back(itf);
    config::RouterStanza ospf;
    ospf.protocol = config::RoutingProtocol::kOspf;
    ospf.process_id = 10;
    config::NetworkStatement ns;
    ns.address = *ip::Ipv4Address::parse("10.77.0.0");
    ns.mask = ip::Netmask::from_length(24);
    ns.area = 0;
    ospf.networks.push_back(ns);
    newcomer.router_stanzas.push_back(ospf);
    evolved.push_back(newcomer);
    // A policy tightening on the first router.
    if (!evolved[0].access_lists.empty() &&
        !evolved[0].access_lists[0].rules.empty()) {
      evolved[0].access_lists[0].rules[0].action =
          config::FilterAction::kDeny;
    }
    after = model::Network::build(synth::reparse(evolved));
    std::printf("(demo mode: comparing a managed enterprise before/after "
                "simulated churn)\n\n");
  }

  const auto diff = analysis::diff_designs(before, after);
  print_diff(diff);
  return 0;
}

int main(int argc, char** argv) {
  return rd::cli::guarded_main("diff_snapshots", run, argc, argv);
}
