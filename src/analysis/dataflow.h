#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/rules.h"
#include "graph/instances.h"
#include "model/network.h"
#include "model/policy.h"

namespace rd::analysis {

/// Forward-dataflow analysis over the routing-instance graph (paper §6:
/// instances glued together with redistribution plus ad-hoc filters). Edges
/// are the points where routes cross instance borders — redistribution
/// commands and internal EBGP sessions — each with its filter policy. Each
/// fact remembers *where it came from*: its originating instance and the
/// router where it first left it. That provenance is what the
/// redistribution-safety rules (RD060-RD064) reason about and the concrete
/// fixpoint deliberately forgets. Facts of different origins never meet,
/// so each origin's facts are one run of `prop::propagate` (DESIGN.md §13).

// --- Protocol tables ---------------------------------------------------------

/// Default IOS administrative distance of a route learned *inside* the
/// protocol (OSPF intra/inter-area, EIGRP internal, IBGP ... modeled as the
/// worse of the internal pair, so inversions are under- not over-reported).
std::uint8_t distance_internal(config::RoutingProtocol protocol) noexcept;

/// Default IOS administrative distance of a route *redistributed into* the
/// protocol (OSPF external, EIGRP external, EBGP).
std::uint8_t distance_external(config::RoutingProtocol protocol) noexcept;

/// The metric algebra a protocol speaks. Redistribution between protocols
/// of different classes loses metric information unless the boundary maps
/// it explicitly (paper §2.4: "metrics are not comparable across
/// protocols").
enum class MetricClass : std::uint8_t {
  kHopCount,    // RIP
  kCost,        // OSPF, IS-IS
  kComposite,   // EIGRP, IGRP (bandwidth/delay vector)
  kPath,        // BGP (path attributes, not a scalar metric)
};

MetricClass metric_class(config::RoutingProtocol protocol) noexcept;

/// "hop-count" / "cost" / "composite" / "path-attribute" — report spelling.
std::string_view metric_class_name(MetricClass cls) noexcept;

/// Human label for a routing instance: "instance 3 (ospf)" or
/// "instance 7 (bgp as 65001)". Indexes are 1-based to match the
/// audit_network report. (Shared by rules.cpp and the dataflow rules.)
std::string instance_label(const graph::InstanceSet& set, std::uint32_t i);

/// 1-based source line of the "redistribute" command behind a model edge.
/// (Shared by rules.cpp and the dataflow rules.)
std::size_t redistribute_line(const model::Network& network,
                              const model::RedistributionEdge& edge);

// --- The engine --------------------------------------------------------------

/// One edge of the instance dataflow graph.
struct DataflowEdge {
  enum class Kind : std::uint8_t {
    kRedistribution,  // a cross-instance "redistribute" command
    kSession,         // an internal EBGP session (one direction)
  };
  Kind kind = Kind::kRedistribution;
  std::uint32_t from = 0;  // source instance index
  std::uint32_t to = 0;    // target instance index (always != from)
  /// Router where facts *enter* `to`: the redistributing router, or the
  /// receiving session endpoint.
  model::RouterId router = model::kInvalidId;
  /// Router where facts *leave* `from`: same router for redistribution,
  /// the sending endpoint for sessions. Facts with no exit stamp yet get
  /// this one when they cross.
  model::RouterId exit_router = model::kInvalidId;
  /// 1-based source line of the redistribute command / neighbor statement.
  std::size_t line = 0;
};

/// A route-map-permitted re-entry of an instance's own routes (the RD060
/// event): some fact originated in `origin` traveled a multi-router cycle
/// and a redistribution edge would inject it back, and the injected copy's
/// administrative distance beats the native route, so the loop is live.
/// Of the exit routers whose facts close the loop, the least is kept, and
/// of the routes closing it through that exit, the least is the witness.
struct LoopEvent {
  std::size_t edge = 0;  // index into edges(); always kRedistribution
  std::uint32_t origin = 0;
  model::RouterId exit_router = model::kInvalidId;  // where it left origin
  model::Route witness;  // as the closing edge's policy forwards it
};

/// A redistribution edge that delivers facts of `origin` into `instance`,
/// the lowest-indexed one. Session deliveries are not recorded: BGP
/// carries its own distance (never inverting an IGP) and its loop
/// prevention is the AS path, not administrative distance.
struct EntryRecord {
  std::uint32_t origin = 0;
  std::uint32_t instance = 0;
  std::size_t edge = 0;  // index into edges()
};

/// The engine. Construction reads the network only through
/// `prop::discover`, the discovery the reachability fixpoint and the
/// simulator share: its redistribution edges then its internal EBGP flows
/// become the edges, and its seeds plus its BGP aggregates (as
/// unconditional origination) become the initial facts. Each origin with
/// an out-edge is then one `prop::Problem`, evaluated by `prop::propagate`:
/// its nodes are the (instance, exit router) pairs its facts reach, and
/// sink nodes catch what would close a loop and what enters each instance.
/// An origin with no out-edge just counts its distinct seed routes. Every
/// result is a deterministic function of the network, so rule output is
/// byte-identical across thread counts.
class InstanceDataflow {
 public:
  InstanceDataflow(const model::Network& network,
                   const graph::InstanceGraph& graph);

  const std::vector<DataflowEdge>& edges() const noexcept { return edges_; }
  /// Ordered by (edge, origin), as are entries().
  const std::vector<LoopEvent>& loop_events() const noexcept {
    return loop_events_;
  }
  const std::vector<EntryRecord>& entries() const noexcept {
    return entries_;
  }
  /// Facts resident after the fixpoint, over all instances (seeds
  /// included).
  std::size_t fact_count() const noexcept { return total_facts_; }
  /// The most rounds any origin's propagation took.
  std::size_t iterations() const noexcept { return iterations_; }
  /// False only if an origin hit the safety cap on rounds (cyclic tag
  /// rewriting could in principle keep minting fresh facts; real configs
  /// converge in a handful of rounds).
  bool converged() const noexcept { return converged_; }

 private:
  std::vector<DataflowEdge> edges_;
  std::vector<LoopEvent> loop_events_;
  std::vector<EntryRecord> entries_;
  std::size_t total_facts_ = 0;
  std::size_t iterations_ = 0;
  bool converged_ = true;
};

// --- Rules -------------------------------------------------------------------

/// The five statically-checked redistribution-safety rules built on the
/// dataflow engine (registered as RD060-RD064, category "dataflow"). Each
/// body is pure and may run concurrently with any other rule; RD060 and
/// RD062 share the run's one `Context::dataflow()`, immutable once built
/// (its per-origin Problems and their compiled policies, whose verdict
/// memos are not shareable, die with the constructor).
struct RedistributionSafety {
  /// RD060: an instance's routes can transit a filter-permitting
  /// multi-router cycle and re-enter their origin with a winning distance.
  static std::vector<Finding> redistribution_loop(const Context& ctx);
  /// RD061: redistribution into a protocol with a different metric algebra
  /// and no metric mapping (no command metric, no default-metric, no
  /// set-metric clause).
  static std::vector<Finding> metric_loss(const Context& ctx);
  /// RD062: a redistributed copy's administrative distance beats the native
  /// route on some router hosting both instances, so which route wins
  /// depends on arrival order.
  static std::vector<Finding> distance_inversion(const Context& ctx);
  /// RD063: mutual redistribution between two instances where at least one
  /// direction carries no filter that can deny anything.
  static std::vector<Finding> unfiltered_mutual(const Context& ctx);
  /// RD064: an IGP instance pair glued by redistribution whose only
  /// route-exchange path is one router (paper §6 robustness smell), both
  /// sides being multi-router conventional-IGP instances.
  static std::vector<Finding> single_point(const Context& ctx);
};

}  // namespace rd::analysis
