// The convergence simulator's two contracts (DESIGN.md §15): determinism —
// one seed produces byte-identical event logs and reports at every thread
// count — and agreement — every scenario's converged RIBs (mid-failure and
// final) equal the static semi-naïve fixpoint on the same masked problem.
// Plus unit coverage for the event queue's total order and the timer
// wheel's lazy-revalidation protocol, which both contracts ride on.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/instances.h"
#include "model/network.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/sweep.h"
#include "synth/archetypes.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace rd {
namespace {

// --- EventQueue --------------------------------------------------------------

TEST(SimEventQueue, OrdersByTimeThenInsertionSequence) {
  sim::EventQueue queue;
  const auto push_at = [&](sim::SimTime at, std::uint32_t instance) {
    sim::Event event;
    event.at_ms = at;
    event.instance = instance;
    queue.push(event);
  };
  // Three events at t=50 (tie broken by push order), interleaved with
  // earlier and later times pushed out of order.
  push_at(50, 1);
  push_at(10, 2);
  push_at(50, 3);
  push_at(5, 4);
  push_at(50, 5);
  push_at(100, 6);

  std::vector<std::uint32_t> order;
  while (!queue.empty()) order.push_back(queue.pop().instance);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{4, 2, 1, 3, 5, 6}));
}

TEST(SimEventQueue, SequenceIsStampedAtPushNotByCaller) {
  sim::EventQueue queue;
  sim::Event event;
  event.at_ms = 7;
  event.seq = 999;  // callers cannot pre-claim an ordering slot
  queue.push(event);
  queue.push(event);
  const auto first = queue.pop();
  const auto second = queue.pop();
  EXPECT_LT(first.seq, second.seq);
}

// --- TimerWheel --------------------------------------------------------------

TEST(SimTimerWheel, FiresWithinTheDeadlineGranule) {
  sim::TimerWheel wheel(200'000);
  wheel.insert(5'000, {1, 2, 3});
  std::vector<sim::SimTime> fired_at;
  sim::SimTime now = 0;
  while (!wheel.empty()) {
    now = wheel.next_granule_end();
    wheel.advance_one([&](const sim::TimerWheel::Node& node,
                          sim::SimTime granule_end) {
      EXPECT_EQ(node.instance, 1u);
      EXPECT_EQ(node.pos, 2u);
      fired_at.push_back(granule_end);
    });
  }
  ASSERT_EQ(fired_at.size(), 1u);
  // Quantized expiry: at or after the deadline, within one granule.
  EXPECT_GE(fired_at[0], 5'000u);
  EXPECT_LE(fired_at[0], 5'000u + 2 * sim::TimerWheel::kGranularityMs);
  EXPECT_EQ(now, fired_at[0]);
}

TEST(SimTimerWheel, RefreshedDeadlineReinsertsInsteadOfFiringEarly) {
  // The lazy-revalidation protocol: the simulator's fire callback sees the
  // entry's deadline moved past this granule and reposts instead of
  // expiring. Model that with an external "current deadline" the callback
  // consults — exactly what the simulator's route entries do.
  sim::TimerWheel wheel(200'000);
  sim::SimTime deadline = 3'000;
  wheel.insert(deadline, {1, 1, 1});
  deadline = 9'000;  // refresh: entry rewritten, wheel node left in place
  std::size_t fired = 0;
  sim::SimTime fired_at = 0;
  for (int step = 0; step < 64 && !wheel.empty(); ++step) {
    wheel.advance_one([&](const sim::TimerWheel::Node& node,
                          sim::SimTime granule_end) {
      if (deadline > granule_end) {
        wheel.insert(deadline, node);  // stale node: repost, don't expire
        return;
      }
      ++fired;
      fired_at = granule_end;
    });
  }
  EXPECT_EQ(fired, 1u);
  EXPECT_GE(fired_at, 9'000u);
}

TEST(SimTimerWheel, CatchUpSkipsIdleStretchesOnlyWhenEmpty) {
  sim::TimerWheel wheel(200'000);
  wheel.insert(1'000, {1, 1, 1});
  const auto before = wheel.next_granule_end();
  wheel.catch_up(500'000);  // non-empty: must not jump past pending nodes
  EXPECT_EQ(wheel.next_granule_end(), before);
  while (!wheel.empty()) {
    wheel.advance_one([](const sim::TimerWheel::Node&, sim::SimTime) {});
  }
  wheel.catch_up(500'000);
  EXPECT_GT(wheel.next_granule_end(), 500'000u);
}

// --- Scenario sweeps ---------------------------------------------------------

/// The CLI demo's network: a two-IGP-instance enterprise with a BGP
/// border — redistribution edges, articulation routers, and small enough
/// that a full sweep with event logs runs in milliseconds.
const model::Network& demo_network() {
  static const model::Network* network = [] {
    synth::TextbookEnterpriseParams params;
    params.routers = 24;
    params.border_routers = 2;
    params.igp_instances = 2;
    return new model::Network(
        model::Network::build(synth::make_textbook_enterprise(params).configs));
  }();
  return *network;
}

const graph::InstanceGraph& demo_graph() {
  static const graph::InstanceGraph* graph =
      new graph::InstanceGraph(graph::InstanceGraph::build(demo_network()));
  return *graph;
}

/// The managed enterprise behind the daemon benchmark's `mgd` fleet
/// (generator seed 1, 260 routers): mutual BGP <-> EIGRP redistribution
/// with `set tag` rewrites, which the demo lacks.
const model::Network& managed_network() {
  static const model::Network* network = [] {
    synth::ManagedEnterpriseParams params;
    params.seed = 1;
    return new model::Network(model::Network::build(
        synth::make_managed_enterprise(params).configs));
  }();
  return *network;
}

const graph::InstanceGraph& managed_graph() {
  static const graph::InstanceGraph* graph =
      new graph::InstanceGraph(graph::InstanceGraph::build(managed_network()));
  return *graph;
}

/// Counts event-log lines `t=T inst=I poisoned R ...` directly followed by
/// `t=T inst=I restore R ...`: one delivery invalidating an entry and
/// reinstalling it at the same simulated instant.
std::size_t poison_restore_pairs(const std::string& log) {
  std::size_t pairs = 0;
  std::istringstream lines(log);
  std::vector<std::string> previous;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (previous.size() >= 4 && tokens.size() >= 4 &&
        previous[2] == "poisoned" && tokens[2] == "restore" &&
        previous[0] == tokens[0] && previous[1] == tokens[1] &&
        previous[3] == tokens[3]) {
      ++pairs;
    }
    previous = std::move(tokens);
  }
  return pairs;
}

std::vector<sim::ScenarioResult> sweep(const sim::SweepOptions& options,
                                       std::size_t threads) {
  util::ThreadPool pool(threads);
  const auto scenarios =
      sim::flap_scenarios(demo_network(), demo_graph(), options.max_scenarios);
  return sim::sweep_scenarios(demo_network(), demo_graph().set, scenarios,
                              options, pool);
}

TEST(SimSweep, EventLogsAndReportAreByteIdenticalAcrossThreadCounts) {
  sim::SweepOptions options;
  options.record_log = true;

  const auto reference = sweep(options, 1);
  ASSERT_FALSE(reference.empty());
  for (const std::size_t threads : {2u, 8u}) {
    const auto results = sweep(options, threads);
    ASSERT_EQ(results.size(), reference.size()) << threads << " threads";
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].name, reference[i].name);
      EXPECT_EQ(results[i].log, reference[i].log)
          << results[i].name << " at " << threads << " threads";
      EXPECT_EQ(results[i].end_ms, reference[i].end_ms) << results[i].name;
      EXPECT_EQ(results[i].route_changes, reference[i].route_changes)
          << results[i].name;
    }
  }

  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);
  const auto report1 =
      sim::simulate_report(demo_network(), demo_graph(), options, pool1);
  const auto report8 =
      sim::simulate_report(demo_network(), demo_graph(), options, pool8);
  EXPECT_EQ(report1, report8);
}

TEST(SimSweep, ReportsAndEventLogsMatchPinnedDigests) {
  // An oracle across versions of the simulator: the SHA-1 of each report
  // with its event logs, pinned from the engine that applied every entry
  // of every delivery one by one. A changed event, log line or random draw
  // changes a digest, even one that every thread count shares and the
  // test above therefore cannot see.
  util::ThreadPool pool(4);
  sim::SweepOptions options;
  options.record_log = true;
  const std::pair<std::uint64_t, const char*> demo[] = {
      {42, "3cf0fd6ff37905906c3cb7150e4979aa9f60d022"},
      {7, "a7fd2a9a33fbe849331f85a68bf91dda79f97c71"},
  };
  for (const auto& [seed, digest] : demo) {
    options.seed = seed;
    EXPECT_EQ(util::Sha1::hex(sim::simulate_report(demo_network(), demo_graph(),
                                                   options, pool)),
              digest)
        << "demo network, sim seed " << seed;
  }

  options.seed = 7;
  options.max_scenarios = 2;
  const std::string managed =
      sim::simulate_report(managed_network(), managed_graph(), options, pool);
  EXPECT_EQ(util::Sha1::hex(managed),
            "71e8b354cde0f08694136103cf9f04319cebba08");
  // A redistribution edge whose sender holds a holddown twin and a valid
  // twin of one rewritten route: every delivery poisons the receiver's
  // entry with the first and restores it with the second. Such a delivery
  // changes the RIB each time it arrives, so it is never a repeat.
  EXPECT_EQ(poison_restore_pairs(managed), 25u);
}

TEST(SimSweep, ReportLogsComeFromTheReportsOwnSweep) {
  // With record_log the report carries one event-log section per scenario,
  // and the logs cost no second sweep: sim.scenarios counts each scenario
  // once.
  sim::SweepOptions options;
  options.record_log = true;
  const auto scenarios = sim::flap_scenarios(demo_network(), demo_graph(), 0);
  ASSERT_GT(scenarios.size(), 1u);
  auto& registry = obs::Registry::instance();
  const bool was_counting = obs::counting_enabled();
  registry.set_counting(true);
  const auto before = obs::counter("sim.scenarios").value();
  util::ThreadPool pool(2);
  const auto report =
      sim::simulate_report(demo_network(), demo_graph(), options, pool);
  const auto swept = obs::counter("sim.scenarios").value() - before;
  registry.set_counting(was_counting);

  EXPECT_EQ(swept, scenarios.size());
  std::size_t sections = 0;
  for (auto at = report.find("--- event log: "); at != std::string::npos;
       at = report.find("--- event log: ", at + 1)) {
    ++sections;
  }
  EXPECT_EQ(sections, scenarios.size());
  for (const auto& scenario : scenarios) {
    EXPECT_NE(report.find("\n--- event log: " + scenario.name + " ---\n"),
              std::string::npos)
        << scenario.name;
  }
  // Without record_log the report is the table alone.
  EXPECT_EQ(sim::simulate_report(demo_network(), demo_graph(), {}, pool)
                .find("--- event log: "),
            std::string::npos);
}

TEST(SimSweep, EveryScenarioMatchesTheStaticFixpoint) {
  const auto results = sweep({}, 4);
  ASSERT_FALSE(results.empty());
  bool any_failure = false;
  for (const auto& result : results) {
    EXPECT_TRUE(result.quiesced) << result.name;
    EXPECT_TRUE(result.degraded_match) << result.name;
    EXPECT_TRUE(result.final_match) << result.name;
    EXPECT_EQ(result.mismatched_routes, 0u) << result.name;
    EXPECT_GT(result.final_route_count, 0u) << result.name;
    if (result.had_failure) {
      any_failure = true;
      // Masking a router invalidates its routes: a flap always moves state.
      EXPECT_GT(result.route_changes, 0u) << result.name;
    }
  }
  EXPECT_TRUE(any_failure) << "flap_scenarios found no failure to inject";
}

TEST(SimSweep, FlapsOpenAndCloseBlackholeWindows) {
  // A flapped articulation router takes routes down and recovery brings
  // them back: at least one (instance, route) loses and regains its valid
  // entry somewhere in the sweep — a closed blackhole window.
  const auto results = sweep({}, 2);
  std::size_t windows = 0;
  for (const auto& result : results) windows += result.blackhole_windows;
  EXPECT_GT(windows, 0u);
}

TEST(SimSweep, DifferentSeedsProduceDifferentEventTimings) {
  sim::SweepOptions a;
  a.record_log = true;
  a.seed = 1;
  sim::SweepOptions b = a;
  b.seed = 2;
  const auto ra = sweep(a, 2);
  const auto rb = sweep(b, 2);
  ASSERT_EQ(ra.size(), rb.size());
  // Jittered link delays and advertisement phases make identical logs
  // across seeds essentially impossible — and both seeds still converge to
  // the same fixpoint.
  bool any_difference = false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].log != rb[i].log) any_difference = true;
    EXPECT_TRUE(rb[i].final_match) << rb[i].name;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SimSweep, UntilCapStopsTheRunEarly) {
  sim::SweepOptions options;
  options.until_ms = 60'000;  // before the t=240s failure injection
  const auto results = sweep(options, 1);
  for (const auto& result : results) {
    EXPECT_LE(result.end_ms, 60'000u) << result.name;
  }
}

}  // namespace
}  // namespace rd
