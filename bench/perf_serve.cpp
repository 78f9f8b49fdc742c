// The rdd value proposition, measured: a one-shot CLI invocation pays
// parse + model build + instance graph before the first byte of analysis,
// while a resident daemon pays it once and amortizes to zero. These
// benchmarks pin the cold/warm ratio EXPERIMENTS.md reports (the
// acceptance bar is >= 10x on the audit path) and the store-assisted
// restart cost in between (decode beats reparse, but is not free), plus
// the cost of a first-time pair query to a resident fleet.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "perf_main.h"

#include "config/writer.h"
#include "ip/ipv4.h"
#include "pipeline/disk_store.h"
#include "pipeline/parse_cache.h"
#include "pipeline/series.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/service.h"
#include "synth/archetypes.h"
#include "util/thread_pool.h"

namespace {

using namespace rd;

struct BenchFleet {
  std::vector<std::string> texts;
  std::vector<std::string> names;
};

const BenchFleet& bench_fleet() {
  static const BenchFleet* fleet = [] {
    synth::ManagedEnterpriseParams p;
    p.seed = 11;
    p.regions = 3;
    p.spokes_per_region = 12;
    p.ebgp_spoke_rate = 0.2;
    auto* f = new BenchFleet;
    std::size_t i = 0;
    for (const auto& cfg : synth::make_managed_enterprise(p).configs) {
      f->texts.push_back(config::write_config(cfg));
      f->names.push_back("config" + std::to_string(i++) + ".txt");
    }
    return f;
  }();
  return *fleet;
}

// Cold path: everything a one-shot `audit_network DIR` does after argv
// parsing — parse every config, build the model and instance graph, run
// the audit. This is the per-invocation price the daemon eliminates.
void BM_ColdOneShotAudit(benchmark::State& state) {
  const auto& fleet = bench_fleet();
  util::ThreadPool pool(1);
  for (auto _ : state) {
    pipeline::ParseCache cache;  // empty every iteration: a fresh process
    auto network =
        pipeline::build_network_cached(fleet.texts, fleet.names, cache, pool);
    const auto graph = graph::InstanceGraph::build(network);
    benchmark::DoNotOptimize(serve::audit_report(network, graph, pool));
  }
  state.counters["routers"] = static_cast<double>(fleet.texts.size());
}
BENCHMARK(BM_ColdOneShotAudit);

// Store-assisted cold start: the parse phase decodes from the persistent
// store instead of reparsing — what a daemon restart (or a second daemon
// sharing the store) pays per config.
void BM_StoreAssistedAudit(benchmark::State& state) {
  const auto& fleet = bench_fleet();
  const auto dir = std::filesystem::temp_directory_path() / "rd_perf_store";
  std::filesystem::remove_all(dir);
  util::ThreadPool pool(1);
  {
    pipeline::DiskStore store(dir);
    pipeline::ParseCache warmer;
    warmer.attach_store(&store);
    for (const auto& text : fleet.texts) warmer.parse(text);
  }
  for (auto _ : state) {
    pipeline::DiskStore store(dir);
    pipeline::ParseCache cache;
    cache.attach_store(&store);
    auto network =
        pipeline::build_network_cached(fleet.texts, fleet.names, cache, pool);
    const auto graph = graph::InstanceGraph::build(network);
    benchmark::DoNotOptimize(serve::audit_report(network, graph, pool));
  }
  state.counters["routers"] = static_cast<double>(fleet.texts.size());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreAssistedAudit);

/// bench_fleet() written out as a config directory, for Service::add_fleet.
std::filesystem::path write_bench_fleet() {
  const auto& fleet = bench_fleet();
  const auto dir =
      std::filesystem::temp_directory_path() / "rd_perf_serve_fleet";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (std::size_t i = 0; i < fleet.texts.size(); ++i) {
    std::FILE* f =
        std::fopen((dir / fleet.names[i]).string().c_str(), "w");
    std::fwrite(fleet.texts[i].data(), 1, fleet.texts[i].size(), f);
    std::fclose(f);
  }
  return dir;
}

// Warm path: what one rdctl request costs a running daemon — Service
// dispatch over the resident model. The cold/warm quotient is the
// headline number.
void BM_WarmResidentQuery(benchmark::State& state) {
  const auto& fleet = bench_fleet();
  const auto dir = write_bench_fleet();
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("bench", dir.string());

  const char* op = state.range(0) == 0 ? "audit" : "rdlint";
  serve::Request request;
  request.op = op;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle(request));
  }
  state.SetLabel(op);
  state.counters["routers"] = static_cast<double>(fleet.texts.size());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WarmResidentQuery)->Arg(0)->Arg(1);

// A first-time pair query to a warm fleet: every iteration asks a
// reachability pair no earlier request asked, so the response cache cannot
// answer and the Service reads the fleet's resident fixpoint, which an
// untimed first query built.
void BM_ServeFreshPair(benchmark::State& state) {
  const auto& fleet = bench_fleet();
  const auto dir = write_bench_fleet();
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("bench", dir.string());

  std::vector<ip::Prefix> lans;
  for (const auto& itf : service.fleets()[0].network->interfaces()) {
    if (itf.subnet && itf.subnet->length() <= 24) lans.push_back(*itf.subnet);
  }
  // Pair n joins host k of LAN n % L to host k of LAN (n / L) % L, with
  // k = n / L^2 % 250: distinct for the first 250 L^2 pairs.
  std::size_t n = 0;
  const auto next_pair = [&] {
    const std::size_t l = lans.size();
    const auto host = [&](std::size_t lan) {
      const auto k = static_cast<std::uint32_t>(n / (l * l) % 250);
      return ip::Ipv4Address(lans[lan].network().value() + 1 + k)
          .to_string();
    };
    serve::Request request;
    request.op = "reachability";
    request.source = host(n % l);
    request.destination = host(n / l % l);
    ++n;
    return request;
  };
  service.handle(next_pair());
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle(next_pair()));
  }
  state.counters["routers"] = static_cast<double>(fleet.texts.size());
  state.counters["lans"] = static_cast<double>(lans.size());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ServeFreshPair);

// Protocol overhead in isolation: encode + frame + decode of a typical
// response, i.e. the wire tax rdctl adds on top of Service::handle.
void BM_FrameEncodeDecode(benchmark::State& state) {
  serve::Response response;
  response.output = std::string(static_cast<std::size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    const auto payload = serve::encode_response(response);
    benchmark::DoNotOptimize(serve::decode_response(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameEncodeDecode)->Arg(1024)->Arg(65536);

}  // namespace

RD_PERF_MAIN
