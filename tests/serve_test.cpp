// The rdd serve layer: frame protocol round-trips (including the oversize
// guard), Service request dispatch, and the determinism contract — every
// analysis response is byte-identical to the shared query functions run
// over a directly-built network, at pool sizes 1/2/8, across repeats, and
// under concurrent multi-client hammering (in-process and through a real
// Unix-socket Server). A client that hangs up without reading its reply
// (EPIPE) must not take the daemon down. Fresh pair queries from concurrent
// clients share the fleet's one fixpoint, and a running Server joins the
// threads of finished connections. The survivability section sweeps only
// the scenarios it prints, and traces each one's rebuild and fixpoint.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/rules.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "model/network.h"
#include "obs/obs.h"
#include "pipeline/parse_cache.h"
#include "pipeline/pipeline.h"
#include "pipeline/series.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/server.h"
#include "serve/service.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace rd {
namespace {

/// The fleet every service test loads, written once per process. ctest runs
/// each test case as its own process, several at a time, so the directory
/// is per process: a shared one gets removed and rewritten under another
/// process's reader.
std::filesystem::path fleet_dir() {
  struct RemovedAtExit {
    std::filesystem::path path;
    ~RemovedAtExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const RemovedAtExit dir{[] {
    const auto d = std::filesystem::path(testing::TempDir()) /
                   ("rd_serve_fleet_" + std::to_string(::getpid()));
    std::filesystem::remove_all(d);
    synth::ManagedEnterpriseParams params;
    params.regions = 2;
    params.spokes_per_region = 4;
    params.ebgp_spoke_rate = 0.3;
    synth::emit_network(synth::make_managed_enterprise(params).configs, d);
    return d;
  }()};
  return dir.path;
}

/// The one-shot CLI's construction of the same fleet: parse with file
/// provenance, build, graph. What every daemon response is diffed against.
struct Reference {
  model::Network network;
  graph::InstanceGraph graph;

  static const Reference& instance() {
    static Reference* ref = [] {
      auto network = model::Network::build(synth::load_network(fleet_dir()));
      auto graph = graph::InstanceGraph::build(network);
      return new Reference{std::move(network), std::move(graph)};
    }();
    return *ref;
  }
};

// --- Frame protocol ---------------------------------------------------------

TEST(ServeProtocol, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payloads[] = {"", "x", std::string(100000, 'q'),
                                  std::string("\x00\xff binary", 9)};
  for (const auto& payload : payloads) {
    ASSERT_TRUE(serve::write_frame(fds[0], payload));
    std::string got;
    std::string error;
    ASSERT_TRUE(serve::read_frame(fds[1], got, &error)) << error;
    EXPECT_EQ(got, payload);
  }
  // Clean EOF: close one end, read reports false with no error text.
  ::close(fds[0]);
  std::string got;
  std::string error;
  EXPECT_FALSE(serve::read_frame(fds[1], got, &error));
  EXPECT_TRUE(error.empty());
  ::close(fds[1]);
}

TEST(ServeProtocol, OversizeFrameIsRejectedWithoutAllocating) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length prefix claiming 3.5 GiB.
  const unsigned char evil[4] = {0xE0, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(fds[0], evil, 4, 0), 4);
  std::string got;
  std::string error;
  EXPECT_FALSE(serve::read_frame(fds[1], got, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  // And the writer refuses to produce one: a payload past the limit is
  // rejected before any bytes hit the wire.
  const std::string too_big(serve::kMaxFrameBytes + 1, 'z');
  EXPECT_FALSE(serve::write_frame(fds[0], too_big));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocol, TruncatedFrameBodyIsAnError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char prefix[4] = {0, 0, 0, 10};  // promises 10 bytes
  ASSERT_EQ(::send(fds[0], prefix, 4, 0), 4);
  ASSERT_EQ(::send(fds[0], "abc", 3, 0), 3);  // delivers 3
  ::close(fds[0]);
  std::string got;
  std::string error;
  EXPECT_FALSE(serve::read_frame(fds[1], got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  ::close(fds[1]);
}

TEST(ServeProtocol, RequestAndResponseJsonRoundTrip) {
  serve::Request request;
  request.op = "reachability";
  request.fleet = "corp";
  request.source = "10.0.0.1";
  request.destination = "10.0.1.1";
  const auto decoded = serve::decode_request(serve::encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, request.op);
  EXPECT_EQ(decoded->fleet, request.fleet);
  EXPECT_EQ(decoded->source, request.source);
  EXPECT_EQ(decoded->destination, request.destination);

  serve::Response response;
  response.ok = false;
  response.exit_code = 2;
  response.output = "line one\nline two\n";
  response.error = "unknown fleet 'x'\n";
  const auto back = serve::decode_response(serve::encode_response(response));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->exit_code, 2);
  EXPECT_EQ(back->output, response.output);
  EXPECT_EQ(back->error, response.error);

  EXPECT_FALSE(serve::decode_request("not json"));
  EXPECT_FALSE(serve::decode_request("{\"no_op\": 1}"));
  EXPECT_FALSE(serve::decode_response("{\"ok\": \"maybe\"}"));
}

// --- Construction equivalence -----------------------------------------------

TEST(ServeService, CachedBuildMatchesDirectLoad) {
  // The daemon builds fleets through the parse cache with provenance
  // stamping; the CLIs parse files directly. Identical models — the root
  // of the byte-identity contract.
  auto loaded = synth::load_network_texts_named(fleet_dir());
  ASSERT_FALSE(loaded.texts.empty());
  pipeline::ParseCache cache;
  util::ThreadPool pool(2);
  const auto cached = pipeline::build_network_cached(loaded.texts,
                                                     loaded.names, cache, pool);
  EXPECT_EQ(pipeline::network_signature(cached),
            pipeline::network_signature(Reference::instance().network));
}

// --- Service dispatch and determinism ---------------------------------------

serve::Request op_request(const char* op) {
  serve::Request request;
  request.op = op;
  return request;
}

std::vector<serve::Request> analysis_requests() {
  std::vector<serve::Request> requests;
  for (const char* op :
       {"audit", "whatif", "reachability", "headerspace", "simulate"}) {
    serve::Request r;
    r.op = op;
    requests.push_back(r);
  }
  for (const char* format : {"text", "json", "sarif"}) {
    serve::Request r;
    r.op = "rdlint";
    r.format = format;
    requests.push_back(r);
  }
  return requests;
}

/// What the one-shot CLIs would print for this request, computed from the
/// reference network via the same shared query functions.
serve::QueryResult reference_result(const serve::Request& request,
                                    util::ThreadPool& pool) {
  const auto& ref = Reference::instance();
  if (request.op == "audit") {
    return serve::audit_report(ref.network, ref.graph, pool);
  }
  if (request.op == "whatif") {
    return serve::whatif_report(ref.network, ref.graph, pool);
  }
  if (request.op == "simulate") {
    return serve::simulate_report(ref.network, ref.graph, request.seed,
                                  request.until_ms, pool);
  }
  if (request.op == "rdlint") {
    // Reports name the network after the config directory's basename (the
    // one-shot CLI convention), never the daemon-local fleet name.
    const auto engine = analysis::RuleEngine::with_default_rules();
    return serve::lint_report(ref.network, engine,
                              fleet_dir().filename().string(),
                              *serve::lint_format_from(request.format), pool);
  }
  serve::ReachabilityRequest reach;
  reach.symbolic = request.op == "headerspace";
  reach.source = request.source;
  reach.destination = request.destination;
  return serve::reachability_report(ref.network, ref.graph.set, reach);
}

TEST(ServeService, ResponsesAreByteIdenticalAcrossPoolSizes) {
  util::ThreadPool reference_pool(1);
  const auto requests = analysis_requests();
  std::vector<std::string> expected;
  std::vector<int> expected_exit;
  for (const auto& request : requests) {
    const auto qr = reference_result(request, reference_pool);
    expected.push_back(qr.output);
    expected_exit.push_back(qr.exit_code);
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    serve::Service::Options options;
    options.threads = threads;
    serve::Service service(options);
    service.add_fleet("corp", fleet_dir().string());
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto response = service.handle(requests[i]);
        EXPECT_TRUE(response.ok);
        EXPECT_EQ(response.exit_code, expected_exit[i])
            << requests[i].op << " at " << threads << " threads";
        EXPECT_EQ(response.output, expected[i])
            << requests[i].op << " at " << threads << " threads, repeat "
            << repeat;
      }
    }
  }
}

TEST(ServeService, EndpointQueriesMatchReference) {
  // A concrete reachable pair: two spoke subnets from the generated plan.
  const auto& ref = Reference::instance();
  // Find two interface addresses on different routers to query between.
  std::string a;
  std::string b;
  for (const auto& itf : ref.network.interfaces()) {
    if (!itf.address) continue;
    if (a.empty()) {
      a = itf.address->to_string();
    } else if (itf.router != 0) {
      b = itf.address->to_string();
      break;
    }
  }
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());

  serve::Service::Options options;
  options.threads = 2;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());
  util::ThreadPool pool(1);
  for (const char* op : {"reachability", "headerspace"}) {
    serve::Request request;
    request.op = op;
    request.source = a;
    request.destination = b;
    const auto expected = reference_result(request, pool);
    const auto response = service.handle(request);
    EXPECT_EQ(response.output, expected.output) << op;
    EXPECT_EQ(response.exit_code, expected.exit_code) << op;
  }
  // Bad addresses surface the CLI's usage error.
  serve::Request bad;
  bad.op = "reachability";
  bad.source = "not-an-address";
  bad.destination = "also-not";
  const auto response = service.handle(bad);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.exit_code, 2);
  EXPECT_EQ(response.error, "bad addresses\n");
}

TEST(ServeService, DispatchErrorsAndHousekeepingOps) {
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  EXPECT_EQ(service.handle(op_request("ping")).output, "pong\n");
  const auto fleets = service.handle(op_request("fleets"));
  EXPECT_NE(fleets.output.find("corp:"), std::string::npos);

  const auto unknown_op = service.handle(op_request("frobnicate"));
  EXPECT_FALSE(unknown_op.ok);
  EXPECT_EQ(unknown_op.exit_code, 2);

  serve::Request wrong_fleet;
  wrong_fleet.op = "audit";
  wrong_fleet.fleet = "nope";
  EXPECT_FALSE(service.handle(wrong_fleet).ok);

  serve::Request bad_format;
  bad_format.op = "rdlint";
  bad_format.format = "yaml";
  const auto bad = service.handle(bad_format);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.exit_code, 2);

  const auto stats = service.handle(op_request("stats"));
  EXPECT_TRUE(stats.ok);
  EXPECT_NE(stats.output.find("\"parse_cache\""), std::string::npos);
  EXPECT_NE(stats.output.find("\"response_cache\""), std::string::npos);
  EXPECT_NE(stats.output.find("\"p99_ms\""), std::string::npos);
  EXPECT_NE(stats.output.find("\"queue_depth\""), std::string::npos);
}

TEST(ServeService, LegacyNaiveFieldStillGetsAnAnswer) {
  // Clients from before the naïve engine left the wire may still send
  // "naive": unknown keys are ignored, so the request decodes and is
  // answered by the one engine there is.
  const auto legacy =
      serve::decode_request(R"({"op":"reachability","naive":true})");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->op, "reachability");
  EXPECT_EQ(serve::encode_request(*legacy),
            serve::encode_request(op_request("reachability")));

  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());
  util::ThreadPool pool(1);
  const auto response = service.handle(*legacy);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.output, reference_result(*legacy, pool).output);
}

TEST(ServeService, TracedSpansAreNamedAfterTheirOp) {
  // obs::Span keeps a view of its name; a name built per request must
  // outlive the span, or the trace records whatever reused its bytes.
  auto& registry = obs::Registry::instance();
  registry.set_tracing(false);
  registry.reset();
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);  // no fleets: analysis ops fail fast
  serve::Request missing_fleet = op_request("reachability");
  missing_fleet.fleet = "nope";
  registry.set_tracing(true);
  for (const auto& request :
       {op_request("ping"), op_request("stats"), op_request("frobnicate"),
        missing_fleet}) {
    service.handle(request);
  }
  registry.set_tracing(false);
  const auto doc = util::Json::parse(registry.trace_json());
  registry.reset();
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto* cat = events->at(i)->get("cat");
    if (cat == nullptr || cat->if_string() == nullptr ||
        *cat->if_string() != "serve") {
      continue;
    }
    names.push_back(*events->at(i)->get("name")->if_string());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"serve.ping", "serve.stats",
                                             "serve.frobnicate",
                                             "serve.reachability"}));
}

TEST(ServeQueries, AuditReportTracesEachSectionOnce) {
  // Every section of the audit runs under one span of category "audit",
  // in report order, so a trace shows where the audit's time goes.
  const auto& ref = Reference::instance();
  util::ThreadPool pool(2);
  auto& registry = obs::Registry::instance();
  registry.set_tracing(false);
  registry.reset();
  registry.set_tracing(true);
  const auto report = serve::audit_report(ref.network, ref.graph, pool);
  registry.set_tracing(false);
  const auto doc = util::Json::parse(registry.trace_json());
  registry.reset();
  EXPECT_NE(report.output.find("=== Design rules ==="), std::string::npos);
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto* cat = events->at(i)->get("cat");
    if (cat == nullptr || cat->if_string() == nullptr ||
        *cat->if_string() != "audit") {
      continue;
    }
    names.push_back(*events->at(i)->get("name")->if_string());
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "audit.address_structure", "audit.design",
                       "audit.survivability", "audit.route_load",
                       "audit.intents", "audit.rules"}));
}

/// A generated network as the one-shot CLIs would build it.
struct Built {
  model::Network network;
  graph::InstanceGraph graph;

  explicit Built(const synth::SynthNetwork& net)
      : network(model::Network::build(synth::reparse(net.configs))),
        graph(graph::InstanceGraph::build(network)) {}
};

Built managed_seed(std::uint64_t seed) {
  synth::ManagedEnterpriseParams params;
  params.seed = seed;
  return Built(synth::make_managed_enterprise(params));
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ServeQueries, SurvivabilitySweepsOnlyShownScenarios) {
  // The survivability section prints the first five single-failure
  // scenarios and sweeps only those; its count line still names them all.
  synth::TextbookEnterpriseParams enterprise;
  enterprise.seed = 1;
  const struct {
    const char* name;
    Built built;
    std::size_t scenarios;
    std::size_t swept;
  } cases[] = {
      {"managed seed 1", managed_seed(1), 10, 5},
      {"enterprise", Built(synth::make_textbook_enterprise(enterprise)), 5, 5},
  };
  auto& registry = obs::Registry::instance();
  util::ThreadPool pool(2);
  for (const auto& c : cases) {
    registry.set_counting(false);
    registry.reset();
    registry.set_counting(true);
    const auto report =
        serve::whatif_report(c.built.network, c.built.graph, pool);
    registry.set_counting(false);
    const auto swept = obs::counter("sweep.scenarios").value();
    const auto runs = obs::counter("reachability.runs").value();
    registry.reset();
    EXPECT_EQ(count_of(report.output, "single-failure sweep: " +
                                          std::to_string(c.scenarios) +
                                          " scenarios\n"),
              1u)
        << c.name << "\n" << report.output;
    EXPECT_EQ(count_of(report.output, ": instances "), c.swept) << c.name;
    EXPECT_EQ(swept, c.swept) << c.name;
    EXPECT_EQ(runs, c.swept) << c.name;
  }
}

TEST(ServeQueries, SurvivabilityTracesEachScenarioRebuildAndFixpoint) {
  // Every swept scenario's span holds one `sweep.failure_problem` child
  // (the re-closure, which the structural impact reads too, the discovery
  // and the mask) and one `reachability.run` child (the counted fixpoint).
  const auto built = managed_seed(1);
  util::ThreadPool pool(2);
  auto& registry = obs::Registry::instance();
  registry.set_tracing(false);
  registry.reset();
  registry.set_tracing(true);
  serve::whatif_report(built.network, built.graph, pool);
  registry.set_tracing(false);
  const auto doc = util::Json::parse(registry.trace_json());
  registry.reset();
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);

  struct Event {
    std::string name;
    long long tid = 0;
    double ts = 0;
    long long depth = 0;
  };
  std::vector<Event> spans;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto* e = events->at(i);
    const auto* ph = e->get("ph");
    if (ph == nullptr || ph->if_string() == nullptr ||
        *ph->if_string() != "X") {
      continue;
    }
    spans.push_back({*e->get("name")->if_string(), e->get("tid")->int_or(-1),
                     e->get("ts")->number_or(-1),
                     e->get("args")->get("depth")->int_or(-1)});
  }
  // Spans on one thread nest, so a span's parent is the latest span on its
  // thread, one level up, that started no later than it did.
  std::map<std::size_t, std::map<std::string, std::size_t>> children;
  std::size_t scenarios = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "sweep.scenario") {
      ++scenarios;
      children[i];
    }
    const Event* parent = nullptr;
    std::size_t parent_index = 0;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const auto& p = spans[j];
      if (p.tid != spans[i].tid || p.depth + 1 != spans[i].depth ||
          p.ts > spans[i].ts || (parent != nullptr && p.ts < parent->ts)) {
        continue;
      }
      parent = &p;
      parent_index = j;
    }
    if (parent != nullptr && parent->name == "sweep.scenario") {
      ++children[parent_index][spans[i].name];
    }
  }
  EXPECT_EQ(scenarios, 5u);
  for (const auto& [index, names] : children) {
    EXPECT_EQ(names, (std::map<std::string, std::size_t>{
                         {"reachability.run", 1},
                         {"sweep.failure_problem", 1}}))
        << "scenario span " << index;
  }
}

TEST(ServeService, RepeatAnalysisRequestsHitTheResponseCache) {
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  serve::Request audit;
  audit.op = "audit";
  const auto first = service.handle(audit);
  EXPECT_EQ(service.response_cache_hits(), 0u);
  const auto second = service.handle(audit);
  EXPECT_EQ(service.response_cache_hits(), 1u);
  EXPECT_EQ(second.output, first.output);
  EXPECT_EQ(second.exit_code, first.exit_code);

  // A different request is a different cache key, not a false hit.
  serve::Request lint;
  lint.op = "rdlint";
  lint.format = "json";
  service.handle(lint);
  EXPECT_EQ(service.response_cache_hits(), 1u);
  service.handle(lint);
  EXPECT_EQ(service.response_cache_hits(), 2u);
}

TEST(ServeService, SimulateSeedAndCapArePartOfTheCacheKey) {
  serve::Service::Options options;
  options.threads = 2;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  serve::Request request;
  request.op = "simulate";
  const auto default_seed = service.handle(request);
  EXPECT_TRUE(default_seed.ok);
  service.handle(request);
  EXPECT_EQ(service.response_cache_hits(), 1u);

  // A different seed is a different pure function: no false cache hit, and
  // the dynamics (event timings in the report) genuinely differ.
  request.seed = 7;
  const auto other_seed = service.handle(request);
  EXPECT_EQ(service.response_cache_hits(), 1u);
  EXPECT_TRUE(other_seed.ok);
  EXPECT_NE(other_seed.output, default_seed.output);

  // So is a different time cap.
  request.seed = 42;
  request.until_ms = 60'000;
  service.handle(request);
  EXPECT_EQ(service.response_cache_hits(), 1u);

  // And the protocol carries both: a decoded wire request reproduces them.
  const auto decoded = serve::decode_request(serve::encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seed, 42u);
  EXPECT_EQ(decoded->until_ms, 60'000u);
}

TEST(ServeService, StatsSeparateColdBuildsFromServingLatency) {
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  serve::Request audit;
  audit.op = "audit";
  service.handle(audit);  // cold: computes and fills the response cache
  service.handle(audit);  // warm: cache hit
  service.handle(audit);  // warm: cache hit

  const auto stats = service.handle(op_request("stats"));
  const auto doc = util::Json::parse(stats.output);
  ASSERT_TRUE(doc.has_value() && doc->is_object()) << stats.output;
  const auto* ops = doc->get("ops");
  ASSERT_TRUE(ops != nullptr && ops->is_array());
  bool found = false;
  for (std::size_t i = 0; i < ops->size(); ++i) {
    const auto* entry = ops->at(i);
    const auto* op = entry->get("op");
    if (op == nullptr || op->if_string() == nullptr ||
        *op->if_string() != "audit") {
      continue;
    }
    found = true;
    // One cold build, counted and costed separately; the percentiles cover
    // only the two cache-hit servings, so the one-time build cannot sit in
    // p99 forever.
    EXPECT_EQ(entry->get("count")->int_or(-1), 3);
    EXPECT_EQ(entry->get("builds")->int_or(-1), 1);
    ASSERT_NE(entry->get("build_ms"), nullptr);
    EXPECT_GT(entry->get("build_ms")->number_or(-1.0), 0.0);
    const auto* p99 = entry->get("p99_ms");
    ASSERT_NE(p99, nullptr);
    // Cache hits are microseconds; the cold audit build is orders of
    // magnitude slower. If the build leaked into the percentile, p99
    // would be ~build_ms.
    EXPECT_LT(p99->number_or(1e9),
              entry->get("build_ms")->number_or(0.0));
  }
  EXPECT_TRUE(found) << stats.output;
}

TEST(ServeService, ConcurrentClientsGetIdenticalBytes) {
  util::ThreadPool reference_pool(1);
  const auto requests = analysis_requests();
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    expected.push_back(reference_result(request, reference_pool).output);
  }

  serve::Service::Options options;
  options.threads = 4;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  constexpr int kClients = 6;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const auto i = static_cast<std::size_t>(c + round) % requests.size();
        const auto response = service.handle(requests[i]);
        if (response.output != expected[i]) ++mismatches[c];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
}

/// Distinct endpoint pairs between interface addresses of the test fleet
/// that a routing instance covers (a pair query probes the fixpoint only
/// for those), sources cycling over a few addresses so that many pairs
/// probe one instance.
std::vector<std::pair<std::string, std::string>> fleet_pairs(
    std::size_t count) {
  const auto& ref = Reference::instance();
  std::vector<std::string> addresses;
  for (const auto& itf : ref.network.interfaces()) {
    if (itf.address && serve::instance_attached_to(ref.network, ref.graph.set,
                                                   *itf.address) >= 0) {
      addresses.push_back(itf.address->to_string());
    }
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  // Destinations stride across the list, so they sit on other routers.
  const std::size_t stride = addresses.size() / count + 1;
  for (std::size_t d = 1; d < addresses.size() && pairs.size() < count;
       ++d) {
    for (std::size_t s = 0; s < 4 && pairs.size() < count; ++s) {
      pairs.emplace_back(addresses[s],
                         addresses[(s + d * stride) % addresses.size()]);
    }
  }
  return pairs;
}

TEST(ServeService, ConcurrentFreshPairsShareOneFixpoint) {
  // Every request is a first-time pair query, so the response cache answers
  // none; all of them read the fleet's one fixpoint, and the first probes
  // of an instance's covering trie can come from several requests at once.
  std::vector<serve::Request> requests;
  for (const auto& [source, destination] : fleet_pairs(24)) {
    for (const char* op : {"reachability", "headerspace"}) {
      serve::Request request;
      request.op = op;
      request.source = source;
      request.destination = destination;
      requests.push_back(request);
    }
  }
  ASSERT_EQ(requests.size(), 48u);
  util::ThreadPool reference_pool(1);
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    expected.push_back(reference_result(request, reference_pool).output);
  }

  serve::Service::Options options;
  options.threads = 4;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());
  auto& registry = obs::Registry::instance();
  registry.set_counting(false);
  registry.reset();
  registry.set_counting(true);

  constexpr std::size_t kClients = 8;
  // All clients start together, so their first requests wait on the one
  // fixpoint build and then probe the same instance at once.
  std::latch start(kClients);
  std::vector<std::thread> clients;
  std::vector<std::vector<std::string>> got(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      for (std::size_t i = c; i < requests.size(); i += kClients) {
        got[c].push_back(service.handle(requests[i]).output);
      }
    });
  }
  for (auto& client : clients) client.join();
  const auto runs = obs::counter("reachability.runs").value();
  registry.set_counting(false);
  registry.reset();

  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t k = 0; k < got[c].size(); ++k) {
      const auto i = c + k * kClients;
      EXPECT_EQ(got[c][k], expected[i])
          << requests[i].op << " " << requests[i].source << " -> "
          << requests[i].destination;
    }
  }
  EXPECT_EQ(service.response_cache_hits(), 0u);
  EXPECT_EQ(runs, 1u);
}

// --- Server end-to-end -------------------------------------------------------

TEST(ServeServer, UnixSocketEndToEndWithConcurrentClients) {
  const auto socket_path =
      (std::filesystem::path(testing::TempDir()) / "rd_serve_e2e.sock")
          .string();
  serve::Service::Options service_options;
  service_options.threads = 2;
  serve::Service service(service_options);
  service.add_fleet("corp", fleet_dir().string());

  serve::Server::Options server_options;
  server_options.unix_path = socket_path;
  serve::Server server(service, server_options);
  std::thread server_thread([&] { server.run(); });

  util::ThreadPool reference_pool(1);
  const auto requests = analysis_requests();
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    expected.push_back(reference_result(request, reference_pool).output);
  }

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = serve::connect_unix(socket_path);
      if (fd < 0) {
        ++failures[c];
        return;
      }
      // Several requests on one connection, answered in order.
      for (int round = 0; round < 2; ++round) {
        const auto i = static_cast<std::size_t>(c + round) % requests.size();
        const auto response = serve::roundtrip(fd, requests[i]);
        if (!response || response->output != expected[i]) ++failures[c];
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }

  // A client that sends a request and hangs up without reading the reply
  // must not kill the daemon (EPIPE, not SIGPIPE)...
  {
    const int fd = serve::connect_unix(socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::write_frame(fd, serve::encode_request(op_request("ping"))));
    ::close(fd);
  }
  // ...and the next client still gets served.
  {
    const int fd = serve::connect_unix(socket_path);
    ASSERT_GE(fd, 0);
    const auto response = serve::roundtrip(fd, op_request("ping"));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->output, "pong\n");
    ::close(fd);
  }

  // Shutdown op stops the accept loop; run() returns and the socket file
  // is collected by the server's destructor.
  {
    const int fd = serve::connect_unix(socket_path);
    ASSERT_GE(fd, 0);
    const auto response = serve::roundtrip(fd, op_request("shutdown"));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->output, "shutting down\n");
    ::close(fd);
  }
  server_thread.join();
}

/// A field of /proc/self/status ("VmSize", "Threads"), in its own unit.
long proc_status(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

TEST(ServeServer, FinishedConnectionsAreReaped) {
  // Every connection gets a thread; a finished one must be joined while the
  // daemon runs, not kept (with its stack mapping) until shutdown.
  const auto socket_path =
      (std::filesystem::path(testing::TempDir()) / "rd_serve_reap.sock")
          .string();
  serve::Service::Options service_options;
  service_options.threads = 1;
  serve::Service service(service_options);
  serve::Server::Options server_options;
  server_options.unix_path = socket_path;
  serve::Server server(service, server_options);
  std::thread server_thread([&] { server.run(); });

  const auto ping_sequentially = [&](int connections) {
    for (int i = 0; i < connections; ++i) {
      const int fd = serve::connect_unix(socket_path);
      ASSERT_GE(fd, 0) << "connection " << i;
      const auto pong = serve::roundtrip(fd, op_request("ping"));
      ::close(fd);
      ASSERT_TRUE(pong.has_value()) << "connection " << i;
    }
  };
  const long threads_before = proc_status("Threads");
  // A warm-up lets the allocator's per-thread arenas and glibc's cache of
  // freed stacks reach their steady size before VmSize is read.
  ping_sequentially(100);
  const long vm_before_kb = proc_status("VmSize");
  ping_sequentially(1000);
  // The last connection's thread ends on its own schedule.
  long threads_after = proc_status("Threads");
  for (int wait = 0; wait < 500 && threads_after != threads_before; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    threads_after = proc_status("Threads");
  }
  const long vm_growth_mb = (proc_status("VmSize") - vm_before_kb) / 1024;
  RecordProperty("vm_growth_mb", static_cast<int>(vm_growth_mb));
  server.request_stop();
  server_thread.join();

  ASSERT_GT(threads_before, 0);
  ASSERT_GT(vm_before_kb, 0);
  EXPECT_EQ(threads_after, threads_before);
  // One unjoined thread costs its whole stack mapping (8 MB by default);
  // a thousand of them would be gigabytes.
  EXPECT_LT(vm_growth_mb, 256) << vm_growth_mb << " MB";
}

void eintr_noop_handler(int) {}

TEST(ServeServer, SignalInterruptedPollIsRetriedNotTreatedAsShutdown) {
  // Regression: the accept loop's poll(2) used to treat every failure as a
  // stop request, so any non-EINTR error made rdd "shut down" cleanly with
  // exit 0 — and a stray signal was one misclassification away from the
  // same fate. Interrupt the loop repeatedly with a handler installed
  // WITHOUT SA_RESTART (so poll really returns EINTR) and require the
  // daemon to keep serving.
  struct sigaction action {};
  action.sa_handler = eintr_noop_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the syscall must observe EINTR
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  const auto socket_path =
      (std::filesystem::path(testing::TempDir()) / "rd_serve_eintr.sock")
          .string();
  serve::Service::Options service_options;
  service_options.threads = 1;
  serve::Service service(service_options);
  serve::Server::Options server_options;
  server_options.unix_path = socket_path;
  serve::Server server(service, server_options);
  std::thread server_thread([&] { server.run(); });

  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ::pthread_kill(server_thread.native_handle(), SIGUSR1);
  }

  const int fd = serve::connect_unix(socket_path);
  ASSERT_GE(fd, 0);
  const auto pong = serve::roundtrip(fd, op_request("ping"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->output, "pong\n");
  ::close(fd);

  server.request_stop();
  server_thread.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
}

TEST(ServeServer, MalformedFrameDrawsAnErrorResponse) {
  const auto socket_path =
      (std::filesystem::path(testing::TempDir()) / "rd_serve_bad.sock")
          .string();
  serve::Service::Options service_options;
  service_options.threads = 1;
  serve::Service service(service_options);
  service.add_fleet("corp", fleet_dir().string());
  serve::Server::Options server_options;
  server_options.unix_path = socket_path;
  serve::Server server(service, server_options);
  std::thread server_thread([&] { server.run(); });

  const int fd = serve::connect_unix(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(serve::write_frame(fd, "this is not json"));
  std::string payload;
  std::string error;
  ASSERT_TRUE(serve::read_frame(fd, payload, &error)) << error;
  const auto response = serve::decode_response(payload);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->exit_code, 2);
  // The connection survives a malformed frame; a good one still works.
  const auto pong = serve::roundtrip(fd, op_request("ping"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->output, "pong\n");
  ::close(fd);

  server.request_stop();
  server_thread.join();
}

}  // namespace
}  // namespace rd
