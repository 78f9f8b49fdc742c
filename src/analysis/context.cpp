#include "analysis/context.h"

#include "analysis/dataflow.h"
#include "analysis/header_space.h"
#include "analysis/reachability.h"

namespace rd::analysis {

Context::Context(const model::Network& network,
                 const graph::InstanceGraph& graph)
    : network(network), graph(graph) {}

Context::~Context() = default;

const ReachabilityAnalysis& Context::routes() const {
  std::call_once(routes_once_, [&] {
    routes_ = std::make_unique<const ReachabilityAnalysis>(
        ReachabilityAnalysis::run(network, graph.set));
  });
  return *routes_;
}

const std::vector<IntentOutcome>& Context::intents() const {
  std::call_once(intents_once_, [&] {
    const auto declared = collect_intents(network);
    intents_ = std::make_unique<const std::vector<IntentOutcome>>(
        declared.empty() ? std::vector<IntentOutcome>{}
                         : verify_intents(network, graph.set, routes(),
                                          declared));
  });
  return *intents_;
}

const InstanceDataflow& Context::dataflow() const {
  std::call_once(dataflow_once_, [&] {
    dataflow_ = std::make_unique<const InstanceDataflow>(network, graph);
  });
  return *dataflow_;
}

}  // namespace rd::analysis
