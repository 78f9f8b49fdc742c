// Model-level round-trip fuzzing: generate random RouterConfig models —
// covering corners the archetype generators never produce — and assert
// parse(write(config)) == config on the modeled fields.
//
// The fuzz volume is dialable from the environment so CI tiers can crank it
// up without editing source:
//   RD_FUZZ_SEEDS  — number of parameterized seed groups (default 8)
//   RD_FUZZ_ITERS  — configs generated per seed group (default 25)
//   RD_FUZZ_SCALE  — multiplier on the generated config's section-count
//                    caps: interfaces, stanzas, ACLs, ... (default 1)

#include <gtest/gtest.h>


#include "config/parser.h"
#include "config/writer.h"
#include "testutil.h"
#include "util/rng.h"

namespace rd::config {
namespace {

using rd::test::env_u64;

// Caps the random section counts scale against; read once.
const std::uint64_t kScale = env_u64("RD_FUZZ_SCALE", 1);

ip::Ipv4Address random_address(util::Rng& rng) {
  return ip::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
}

ip::Prefix random_prefix(util::Rng& rng, int min_len = 0, int max_len = 32) {
  return ip::Prefix(random_address(rng),
                    static_cast<int>(rng.range(min_len, max_len)));
}

std::string random_name(util::Rng& rng) {
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_";
  std::string name;
  const auto length = 1 + rng.below(12);
  for (std::uint64_t i = 0; i < length; ++i) {
    name += kChars[rng.below(sizeof(kChars) - 1)];
  }
  // Must not collide with IOS keywords or parse as a number; prefixing
  // makes it safely user-specific.
  return "X" + name;
}

InterfaceConfig random_interface(util::Rng& rng, int index) {
  InterfaceConfig itf;
  const char* types[] = {"Serial",   "FastEthernet", "Ethernet",
                         "Loopback", "ATM",          "POS"};
  itf.name = std::string(types[rng.below(std::size(types))]) +
             std::to_string(index) + "/" + std::to_string(rng.below(4));
  itf.point_to_point = rng.chance(0.3);
  if (rng.chance(0.85)) {
    itf.address = {random_address(rng),
                   ip::Netmask::from_length(
                       static_cast<int>(rng.range(8, 32)))};
    const auto n_secondary = rng.below(3);
    for (std::uint64_t s = 0; s < n_secondary; ++s) {
      itf.secondary_addresses.push_back(
          {random_address(rng),
           ip::Netmask::from_length(static_cast<int>(rng.range(8, 30)))});
    }
  }
  if (rng.chance(0.4)) itf.description = random_name(rng);
  if (rng.chance(0.3)) itf.bandwidth_kbps = 64 << rng.below(8);
  if (rng.chance(0.3)) itf.access_group_in = std::to_string(rng.below(199));
  if (rng.chance(0.2)) itf.access_group_out = std::to_string(rng.below(199));
  if (rng.chance(0.2)) itf.ospf_cost = 1 + rng.below(1000);
  if (rng.chance(0.1)) itf.isis = true;
  if (rng.chance(0.1)) itf.shutdown = true;
  if (rng.chance(0.3)) {
    itf.extra_lines.push_back("frame-relay interface-dlci " +
                              std::to_string(16 + rng.below(900)));
  }
  return itf;
}

AclRule random_rule(util::Rng& rng) {
  AclRule rule;
  rule.action = rng.chance(0.5) ? FilterAction::kPermit : FilterAction::kDeny;
  rule.extended = rng.chance(0.5);
  if (rule.extended) {
    const char* protos[] = {"ip", "tcp", "udp", "icmp", "pim", "gre"};
    rule.protocol = protos[rng.below(std::size(protos))];
    rule.any_source = rng.chance(0.4);
    if (!rule.any_source) rule.source = random_prefix(rng);
    rule.any_destination = rng.chance(0.4);
    if (!rule.any_destination) rule.destination = random_prefix(rng);
    if (rng.chance(0.4)) {
      rule.destination_port = static_cast<std::uint16_t>(rng.below(65536));
    }
  } else {
    rule.any_source = rng.chance(0.2);
    if (!rule.any_source) rule.source = random_prefix(rng);
    rule.any_destination = true;
  }
  return rule;
}

RouterStanza random_stanza(util::Rng& rng, bool& used_rip) {
  RouterStanza stanza;
  const auto which = rng.below(5);
  switch (which) {
    case 0:
      stanza.protocol = RoutingProtocol::kOspf;
      stanza.process_id = 1 + rng.below(65000);
      break;
    case 1:
      stanza.protocol = RoutingProtocol::kEigrp;
      stanza.process_id = 1 + rng.below(65000);
      break;
    case 2:
      if (used_rip) {
        stanza.protocol = RoutingProtocol::kOspf;
        stanza.process_id = 1 + rng.below(65000);
      } else {
        stanza.protocol = RoutingProtocol::kRip;
        used_rip = true;
      }
      break;
    default:
      stanza.protocol = RoutingProtocol::kBgp;
      stanza.process_id = 1 + rng.below(65000);
      break;
  }
  const auto n_networks = rng.below(4);
  for (std::uint64_t i = 0; i < n_networks; ++i) {
    NetworkStatement ns;
    ns.address = random_address(rng);
    ns.mask = ip::Netmask::from_length(static_cast<int>(rng.range(1, 30)));
    if (stanza.protocol == RoutingProtocol::kOspf) ns.area = rng.below(100);
    stanza.networks.push_back(ns);
  }
  if (stanza.protocol == RoutingProtocol::kBgp) {
    const auto n_neighbors = rng.below(4);
    for (std::uint64_t i = 0; i < n_neighbors; ++i) {
      BgpNeighbor nbr;
      nbr.address = random_address(rng);
      nbr.remote_as = 1 + rng.below(65000);
      if (rng.chance(0.3)) nbr.distribute_list_in = std::to_string(rng.below(99));
      if (rng.chance(0.3)) nbr.route_map_out = random_name(rng);
      if (rng.chance(0.2)) nbr.prefix_list_in = random_name(rng);
      if (rng.chance(0.2)) nbr.update_source = "Loopback0";
      nbr.next_hop_self = rng.chance(0.2);
      nbr.route_reflector_client = rng.chance(0.2);
      stanza.neighbors.push_back(std::move(nbr));
    }
    if (rng.chance(0.4)) {
      AggregateAddress aggregate;
      aggregate.address = random_address(rng);
      aggregate.mask =
          ip::Netmask::from_length(static_cast<int>(rng.range(8, 24)));
      aggregate.summary_only = rng.chance(0.5);
      stanza.aggregates.push_back(aggregate);
    }
  }
  const auto n_redists = rng.below(3);
  for (std::uint64_t i = 0; i < n_redists; ++i) {
    Redistribute redist;
    const auto kind = rng.below(3);
    if (kind == 0) {
      redist.source = RedistributeSource::kConnected;
    } else if (kind == 1) {
      redist.source = RedistributeSource::kStatic;
    } else {
      redist.source = RedistributeSource::kProtocol;
      redist.protocol = rng.chance(0.5) ? RoutingProtocol::kOspf
                                        : RoutingProtocol::kBgp;
      redist.process_id = 1 + rng.below(65000);
    }
    if (rng.chance(0.4)) redist.route_map = random_name(rng);
    if (rng.chance(0.4)) redist.metric = rng.below(1000);
    if (rng.chance(0.3)) redist.metric_type = 1 + rng.below(2);
    redist.subnets = rng.chance(0.5);
    stanza.redistributes.push_back(std::move(redist));
  }
  if (rng.chance(0.3)) {
    DistributeList dl;
    dl.acl = std::to_string(rng.below(99));
    dl.inbound = rng.chance(0.5);
    if (rng.chance(0.3)) dl.interface = "Serial0/0";
    stanza.distribute_lists.push_back(std::move(dl));
  }
  if (rng.chance(0.3)) stanza.router_id = random_address(rng);
  if (rng.chance(0.2)) stanza.passive_default = true;
  if (rng.chance(0.3)) stanza.passive_interfaces.push_back("Ethernet0/0");
  if (rng.chance(0.2)) stanza.default_metric = 1 + rng.below(100);
  return stanza;
}

RouterConfig random_config(std::uint64_t seed) {
  util::Rng rng(seed);
  RouterConfig cfg;
  cfg.hostname = random_name(rng);
  const auto n_interfaces = 1 + rng.below(8 * kScale);
  for (std::uint64_t i = 0; i < n_interfaces; ++i) {
    cfg.interfaces.push_back(random_interface(rng, static_cast<int>(i)));
  }
  bool used_rip = false;
  const auto n_stanzas = rng.below(5 * kScale);
  for (std::uint64_t i = 0; i < n_stanzas; ++i) {
    cfg.router_stanzas.push_back(random_stanza(rng, used_rip));
  }
  const auto n_acls = rng.below(4 * kScale);
  for (std::uint64_t a = 0; a < n_acls; ++a) {
    AccessList acl;
    acl.named = rng.chance(0.3);
    acl.id = acl.named ? random_name(rng)
                       : std::to_string(1 + rng.below(199) + 200 * a);
    if (acl.named) acl.extended_block = rng.chance(0.5);
    const auto n_rules = 1 + rng.below(6);
    for (std::uint64_t i = 0; i < n_rules; ++i) {
      auto rule = random_rule(rng);
      // Named standard blocks reject extended syntax in IOS; our writer
      // would still round-trip, but keep the model realistic.
      if (acl.named && !acl.extended_block) rule = [&] {
        AclRule standard;
        standard.action = rule.action;
        standard.any_source = rule.any_source;
        standard.source = rule.source;
        return standard;
      }();
      acl.rules.push_back(std::move(rule));
    }
    cfg.access_lists.push_back(std::move(acl));
  }
  const auto n_pls = rng.below(3 * kScale);
  for (std::uint64_t p = 0; p < n_pls; ++p) {
    PrefixList pl;
    pl.name = random_name(rng);
    const auto n_entries = 1 + rng.below(4);
    for (std::uint64_t i = 0; i < n_entries; ++i) {
      PrefixListEntry entry;
      entry.sequence = static_cast<std::uint32_t>(5 * (i + 1));
      entry.action =
          rng.chance(0.7) ? FilterAction::kPermit : FilterAction::kDeny;
      entry.prefix = random_prefix(rng, 0, 28);
      if (rng.chance(0.4)) {
        entry.le = entry.prefix.length() +
                   static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(33 - entry.prefix.length())));
      }
      pl.entries.push_back(entry);
    }
    cfg.prefix_lists.push_back(std::move(pl));
  }
  if (rng.chance(0.4)) {
    AsPathAccessList ap;
    ap.id = std::to_string(1 + rng.below(99));
    ap.entries.push_back({FilterAction::kPermit, "^$"});
    cfg.as_path_lists.push_back(std::move(ap));
  }
  const auto n_maps = rng.below(3 * kScale);
  for (std::uint64_t m = 0; m < n_maps; ++m) {
    RouteMap rm;
    rm.name = random_name(rng);
    const auto n_clauses = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < n_clauses; ++i) {
      RouteMapClause clause;
      clause.sequence = static_cast<std::uint32_t>(10 * (i + 1));
      clause.action =
          rng.chance(0.7) ? FilterAction::kPermit : FilterAction::kDeny;
      if (rng.chance(0.5)) {
        clause.match_ip_address_acls.push_back(
            std::to_string(1 + rng.below(99)));
      }
      if (rng.chance(0.2)) clause.match_prefix_lists.push_back(random_name(rng));
      if (rng.chance(0.2)) clause.match_as_paths.push_back("7");
      if (rng.chance(0.3)) clause.match_tag = rng.below(1000);
      if (rng.chance(0.3)) clause.set_tag = rng.below(1000);
      if (rng.chance(0.2)) clause.set_metric = rng.below(1000);
      if (rng.chance(0.2)) clause.set_local_preference = rng.below(500);
      rm.clauses.push_back(std::move(clause));
    }
    cfg.route_maps.push_back(std::move(rm));
  }
  const auto n_statics = rng.below(5 * kScale);
  for (std::uint64_t i = 0; i < n_statics; ++i) {
    StaticRoute route;
    route.destination = random_address(rng);
    route.mask = ip::Netmask::from_length(static_cast<int>(rng.range(0, 32)));
    if (rng.chance(0.8)) {
      route.next_hop = random_address(rng);
    } else {
      route.next_hop = std::string("Serial0/0");
    }
    if (rng.chance(0.3)) route.administrative_distance = 1 + rng.below(254);
    cfg.static_routes.push_back(std::move(route));
  }
  return cfg;
}

class RoundTripFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripFuzz, ParseOfWriteIsIdentity) {
  const int iters = static_cast<int>(env_u64("RD_FUZZ_ITERS", 25));
  for (int i = 0; i < iters; ++i) {
    const auto seed =
        static_cast<std::uint64_t>(GetParam()) * 1000 + static_cast<std::uint64_t>(i);
    const auto cfg = random_config(seed);
    const auto text = write_config(cfg);
    const auto result = parse_config(text, cfg.hostname);
    EXPECT_TRUE(result.diagnostics.empty())
        << "seed " << seed << ": "
        << (result.diagnostics.empty() ? ""
                                       : result.diagnostics[0].message);
    const auto& reparsed = result.config;
    EXPECT_EQ(reparsed.hostname, cfg.hostname) << seed;
    EXPECT_EQ(reparsed.interfaces, cfg.interfaces) << seed;
    EXPECT_EQ(reparsed.router_stanzas, cfg.router_stanzas) << seed;
    EXPECT_EQ(reparsed.access_lists, cfg.access_lists) << seed;
    EXPECT_EQ(reparsed.prefix_lists, cfg.prefix_lists) << seed;
    EXPECT_EQ(reparsed.as_path_lists, cfg.as_path_lists) << seed;
    EXPECT_EQ(reparsed.route_maps, cfg.route_maps) << seed;
    EXPECT_EQ(reparsed.static_routes, cfg.static_routes) << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RoundTripFuzz,
    ::testing::Range(0, static_cast<int>(env_u64("RD_FUZZ_SEEDS", 8))));

}  // namespace
}  // namespace rd::config
