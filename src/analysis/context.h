#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "graph/instances.h"
#include "model/network.h"

namespace rd::analysis {

class ReachabilityAnalysis;
class InstanceDataflow;
struct IntentOutcome;

/// One network's analysis context (DESIGN.md §8): the network, its instance
/// graph, and the per-network facts that the design rules, audit_network's
/// report, the pipeline report and the rdd daemon's requests share. Each
/// fact is built at most once, on first use (std::call_once), and is
/// immutable afterwards, so every pool thread and every concurrent request
/// may read it; a build that throws is retried by the next caller.
/// Constructing a context builds nothing. `network` and `graph` must
/// outlive the context.
class Context {
 public:
  Context(const model::Network& network, const graph::InstanceGraph& graph);
  ~Context();

  const model::Network& network;
  const graph::InstanceGraph& graph;

  /// The baseline route fixpoint. Its `instance_has_route_to` builds each
  /// instance's trie once, on first query, under a per-instance once_flag,
  /// so concurrent readers may probe it too.
  const ReachabilityAnalysis& routes() const;
  /// The verdict of every `! rd-intent` assertion, in `collect_intents`
  /// order. Empty, and no fixpoint run, when no config declares one.
  const std::vector<IntentOutcome>& intents() const;
  /// The instance-graph dataflow behind RD060-RD064 (DESIGN.md §13).
  const InstanceDataflow& dataflow() const;

 private:
  mutable std::once_flag routes_once_, intents_once_, dataflow_once_;
  mutable std::unique_ptr<const ReachabilityAnalysis> routes_;
  mutable std::unique_ptr<const std::vector<IntentOutcome>> intents_;
  mutable std::unique_ptr<const InstanceDataflow> dataflow_;
};

}  // namespace rd::analysis
