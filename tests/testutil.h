#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/rules.h"
#include "config/ast.h"
#include "config/parser.h"
#include "ip/ipv4.h"
#include "model/network.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace rd::test {

/// Parse a config snippet, asserting nothing about diagnostics.
inline config::RouterConfig parse(std::string_view text,
                                  std::string_view name = "test") {
  return config::parse_config(text, name).config;
}

/// Build a model::Network from config texts.
inline model::Network network_of(std::vector<std::string> texts) {
  std::vector<config::RouterConfig> configs;
  configs.reserve(texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    configs.push_back(
        config::parse_config(texts[i], "cfg" + std::to_string(i)).config);
  }
  return model::Network::build(std::move(configs));
}

/// A design-rule run on a one-thread pool: the engine's one run path,
/// which at concurrency 1 is the serial loop (DESIGN.md §6).
inline analysis::RuleEngine::Result run_serial(
    const analysis::RuleEngine& engine, const model::Network& network) {
  util::ThreadPool pool(1);
  return engine.run(network, pool);
}

/// A positive integer from the environment (the RD_FUZZ_* stress dials),
/// or `fallback` when the variable is unset, malformed or zero.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  std::uint64_t parsed = 0;
  if (!util::parse_u64(util::trim(raw), parsed) || parsed == 0) {
    return fallback;
  }
  return parsed;
}

inline ip::Prefix pfx(std::string_view text) {
  return *ip::Prefix::parse(text);
}

inline ip::Ipv4Address addr(std::string_view text) {
  return *ip::Ipv4Address::parse(text);
}

/// The paper's Figure 2 configlet (router R2), verbatim except that the
/// wildcarded access-list line 30 uses the standard one-address form the
/// paper prints.
inline constexpr std::string_view kFigure2Config = R"(interface Ethernet0
 ip address 66.251.75.144 255.255.255.128
 ip access-group 143 in
!
interface Serial1/0.5 point-to-point
 ip address 66.253.32.85 255.255.255.252
 ip access-group 143 in
 frame-relay interface-dlci 28
!
interface Hssi2/0 point-to-point
 ip address 66.253.160.67 255.255.255.252
!
router ospf 64
 redistribute connected metric-type 1 subnets
 redistribute bgp 64780 metric 1 subnets
 network 66.251.75.128 0.0.0.127 area 0
!
router ospf 128
 redistribute connected metric-type 1 subnets
 network 66.253.32.84 0.0.0.3 area 11
 distribute-list 44 in Serial1/0.5
 distribute-list 45 out
!
router bgp 64780
 redistribute ospf 64 match route-map 8aTzlvBrbaW
 neighbor 66.253.160.68 remote-as 12762
 neighbor 66.253.160.68 distribute-list 4 in
 neighbor 66.253.160.68 distribute-list 3 out
!
access-list 143 deny 134.161.0.0 0.0.255.255
access-list 143 permit any
route-map 8aTzlvBrbaW deny 10
 match ip address 4
route-map 8aTzlvBrbaW permit 20
 match ip address 7
ip route 10.235.240.71 255.255.0.0 10.234.12.7
)";

}  // namespace rd::test
