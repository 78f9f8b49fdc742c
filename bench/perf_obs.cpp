// Observability overhead benchmarks (DESIGN.md §10): the disabled paths
// must be near-free (one relaxed atomic load), and the enabled paths must
// stay cheap enough that --trace on a real audit is usable. The headline
// number is the pipeline pair: BM_PipelineTracingOff vs
// BM_PipelineTracingOn bound the cost of the instrumentation that ships in
// the hot layers (the acceptance bar is <2% with tracing disabled, which
// BM_PipelineTracingOff vs the perf_pipeline baseline holds).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "perf_main.h"

#include "config/writer.h"
#include "obs/obs.h"
#include "pipeline/pipeline.h"
#include "synth/archetypes.h"
#include "util/thread_pool.h"

namespace {

using namespace rd;

std::vector<std::string> managed_texts() {
  synth::ManagedEnterpriseParams p;
  p.seed = 7;
  p.regions = 3;
  p.spokes_per_region = 12;
  std::vector<std::string> texts;
  for (const auto& cfg : synth::make_managed_enterprise(p).configs) {
    texts.push_back(config::write_config(cfg));
  }
  return texts;
}

void disarm() {
  obs::Registry::instance().set_tracing(false);
  obs::Registry::instance().set_counting(false);
  obs::Registry::instance().reset();
}

// --- span -------------------------------------------------------------------

void BM_SpanDisabled(benchmark::State& state) {
  disarm();
  for (auto _ : state) {
    obs::Span span("bench.span", "bench");
    benchmark::DoNotOptimize(span.armed());
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  disarm();
  obs::Registry::instance().set_tracing(true);
  for (auto _ : state) {
    obs::Span span("bench.span", "bench");
    benchmark::DoNotOptimize(span.armed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  disarm();
}
BENCHMARK(BM_SpanEnabled);

// --- counter ----------------------------------------------------------------

void BM_CounterDisabled(benchmark::State& state) {
  disarm();
  auto& counter = obs::counter("bench.counter");
  for (auto _ : state) {
    counter.add();
    benchmark::DoNotOptimize(&counter);
  }
}
BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabled(benchmark::State& state) {
  disarm();
  obs::Registry::instance().set_counting(true);
  auto& counter = obs::counter("bench.counter");
  for (auto _ : state) {
    counter.add();
    benchmark::DoNotOptimize(&counter);
  }
  disarm();
}
BENCHMARK(BM_CounterEnabled);

// --- whole pipeline ---------------------------------------------------------

void BM_PipelineTracingOff(benchmark::State& state) {
  disarm();
  const auto texts = managed_texts();
  util::ThreadPool pool(1);
  for (auto _ : state) {
    const auto reports =
        pipeline::analyze_fleet_parallel({{"bench", texts}}, pool);
    benchmark::DoNotOptimize(reports.front().json.size());
  }
}
BENCHMARK(BM_PipelineTracingOff)->Unit(benchmark::kMillisecond);

void BM_PipelineTracingOn(benchmark::State& state) {
  disarm();
  obs::Registry::instance().set_tracing(true);
  obs::Registry::instance().set_counting(true);
  const auto texts = managed_texts();
  util::ThreadPool pool(1);
  for (auto _ : state) {
    // Reset per iteration so the event buffer doesn't grow without bound
    // across measurement repetitions.
    obs::Registry::instance().reset();
    const auto reports =
        pipeline::analyze_fleet_parallel({{"bench", texts}}, pool);
    benchmark::DoNotOptimize(reports.front().json.size());
  }
  state.counters["events"] = static_cast<double>(
      obs::Registry::instance().event_count());
  disarm();
}
BENCHMARK(BM_PipelineTracingOn)->Unit(benchmark::kMillisecond);

// --- export -----------------------------------------------------------------

void BM_TraceExport(benchmark::State& state) {
  disarm();
  obs::Registry::instance().set_tracing(true);
  for (int i = 0; i < 10000; ++i) {
    obs::Span span("bench.export", "bench");
    span.arg("i", static_cast<std::uint64_t>(i));
  }
  obs::Registry::instance().set_tracing(false);
  for (auto _ : state) {
    const auto json = obs::Registry::instance().trace_json();
    benchmark::DoNotOptimize(json.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * obs::Registry::instance().trace_json().size()));
  disarm();
}
BENCHMARK(BM_TraceExport)->Unit(benchmark::kMillisecond);

}  // namespace

RD_PERF_MAIN
