// Differential harness for the incremental snapshot-series pipeline: the
// warm, cached path (analyze_snapshot_series) must be byte-identical to the
// cold cache-free serial reference (analyze_snapshot_series_serial) at every
// thread count, across series that add, remove, and modify routers. Cache
// accounting is checked at one thread, where scheduling is deterministic.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/evolution.h"
#include "config/writer.h"
#include "pipeline/parse_cache.h"
#include "pipeline/pipeline.h"
#include "pipeline/series.h"
#include "synth/archetypes.h"
#include "util/thread_pool.h"

namespace rd {
namespace {

std::vector<std::string> texts_of(const synth::SynthNetwork& net) {
  std::vector<std::string> texts;
  texts.reserve(net.configs.size());
  for (const auto& cfg : net.configs) {
    texts.push_back(config::write_config(cfg));
  }
  return texts;
}

/// A three-snapshot series with the churn kinds §8.2 cares about:
///   t0 -> t1: two routers modified (one static route each);
///   t1 -> t2: last router removed, one new router added, one modified.
std::vector<pipeline::SnapshotInput> managed_series(std::uint64_t seed) {
  synth::ManagedEnterpriseParams params;
  params.seed = seed;
  params.regions = 2;
  params.spokes_per_region = 6;
  params.ebgp_spoke_rate = 0.2;
  const auto base = texts_of(synth::make_managed_enterprise(params));

  auto t1 = base;
  t1[0] += "ip route 10.210.0.0 255.255.255.0 10.0.0.1\n";
  t1[t1.size() / 2] += "ip route 10.210.1.0 255.255.255.0 10.0.0.1\n";

  auto t2 = t1;
  t2.pop_back();
  t2[1] += "ip route 10.210.2.0 255.255.255.0 10.0.0.1\n";
  t2.push_back(
      "hostname lab-new-spoke\n"
      "interface Ethernet0\n"
      " ip address 10.210.3.1 255.255.255.0\n"
      "router rip\n"
      " network 10.0.0.0\n");

  return {{"t0", base}, {"t1", t1}, {"t2", t2}};
}

void expect_equal_series(const pipeline::SeriesReport& got,
                         const pipeline::SeriesReport& want,
                         const std::string& label) {
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size()) << label;
  for (std::size_t i = 0; i < want.snapshots.size(); ++i) {
    const auto tag = label + " snapshot " + std::to_string(i);
    EXPECT_EQ(got.snapshots[i].signature, want.snapshots[i].signature) << tag;
    EXPECT_EQ(got.snapshots[i].report.json, want.snapshots[i].report.json)
        << tag;
    EXPECT_EQ(got.snapshots[i].report.name, want.snapshots[i].report.name)
        << tag;
    EXPECT_EQ(got.snapshots[i].report.instance_graph_dot,
              want.snapshots[i].report.instance_graph_dot)
        << tag;
  }
  ASSERT_EQ(got.diffs.size(), want.diffs.size()) << label;
  for (std::size_t i = 0; i < want.diffs.size(); ++i) {
    EXPECT_TRUE(got.diffs[i] == want.diffs[i])
        << label << " diff " << i;
  }
}

class SnapshotSeriesDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotSeriesDifferential, WarmPathMatchesColdAtEveryThreadCount) {
  const auto series = managed_series(GetParam());
  const auto cold = pipeline::analyze_snapshot_series_serial(series);

  ASSERT_EQ(cold.snapshots.size(), 3u);
  ASSERT_EQ(cold.diffs.size(), 2u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    pipeline::ParseCache cache;
    util::ThreadPool pool(threads);
    const auto warm = pipeline::analyze_snapshot_series(series, cache, pool);
    expect_equal_series(warm, cold, "threads " + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotSeriesDifferential,
                         ::testing::Values(1u, 7u, 42u));

TEST(SnapshotSeries, DiffChainReportsTheChurn) {
  const auto series = managed_series(7);
  const auto report = pipeline::analyze_snapshot_series_serial(series);
  ASSERT_EQ(report.diffs.size(), 2u);

  // t0 -> t1: modifications only.
  EXPECT_TRUE(report.diffs[0].added_routers.empty());
  EXPECT_TRUE(report.diffs[0].removed_routers.empty());
  EXPECT_EQ(report.diffs[0].routers_with_static_route_changes, 2u);

  // t1 -> t2: one removed, one added, one modified.
  ASSERT_EQ(report.diffs[1].added_routers.size(), 1u);
  EXPECT_EQ(report.diffs[1].added_routers[0], "lab-new-spoke");
  EXPECT_EQ(report.diffs[1].removed_routers.size(), 1u);
  EXPECT_EQ(report.diffs[1].routers_with_static_route_changes, 1u);
}

TEST(SnapshotSeries, SeriesDiffsMatchDiffDesignChain) {
  const auto series = managed_series(42);
  const auto report = pipeline::analyze_snapshot_series_serial(series);

  std::vector<model::Network> snapshots;
  snapshots.reserve(series.size());
  for (const auto& snapshot : series) {
    snapshots.push_back(pipeline::build_network_serial(snapshot.texts));
  }
  const auto chain = analysis::diff_design_chain(snapshots);
  ASSERT_EQ(chain.size(), report.diffs.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_TRUE(chain[i] == report.diffs[i]) << "diff " << i;
  }
}

TEST(SnapshotSeries, DiffDesignChainDegenerateInputs) {
  EXPECT_TRUE(analysis::diff_design_chain({}).empty());
  std::vector<model::Network> one;
  one.push_back(pipeline::build_network_serial({"hostname solo\n"}));
  EXPECT_TRUE(analysis::diff_design_chain(one).empty());
}

TEST(SnapshotSeries, CacheAccountingAtOneThread) {
  const auto series = managed_series(7);
  const std::size_t n = series[0].texts.size();

  pipeline::ParseCache cache;
  util::ThreadPool pool(1);  // deterministic hit/miss split
  const auto report = pipeline::analyze_snapshot_series(series, cache, pool);
  ASSERT_EQ(report.snapshots.size(), 3u);

  // t0: every router is new (synth texts are all distinct).
  EXPECT_EQ(report.snapshots[0].cache_misses, n);
  EXPECT_EQ(report.snapshots[0].cache_hits, 0u);

  // t1: only the two modified routers miss.
  EXPECT_EQ(report.snapshots[1].cache_misses, 2u);
  EXPECT_EQ(report.snapshots[1].cache_hits, n - 2);

  // t2: still n texts (one removed, one added); the modified router and the
  // brand-new router miss, the removed router simply isn't requested.
  EXPECT_EQ(report.snapshots[2].cache_misses, 2u);
  EXPECT_EQ(report.snapshots[2].cache_hits, n - 2);
}

TEST(SnapshotSeries, CachePersistsAcrossSeriesCalls) {
  const auto series = managed_series(1);
  pipeline::ParseCache cache;
  util::ThreadPool pool(1);

  const auto first = pipeline::analyze_snapshot_series(series, cache, pool);
  const auto second = pipeline::analyze_snapshot_series(series, cache, pool);

  // Every parse in the second pass is served from the cache.
  for (const auto& snapshot : second.snapshots) {
    EXPECT_EQ(snapshot.cache_misses, 0u);
    EXPECT_EQ(snapshot.cache_hits, snapshot.report.routers);
  }
  // And the output is still byte-identical.
  ASSERT_EQ(first.snapshots.size(), second.snapshots.size());
  for (std::size_t i = 0; i < first.snapshots.size(); ++i) {
    EXPECT_EQ(first.snapshots[i].signature, second.snapshots[i].signature);
    EXPECT_EQ(first.snapshots[i].report.json, second.snapshots[i].report.json);
  }
}

TEST(SnapshotSeries, EmptySeriesYieldsEmptyReport) {
  pipeline::ParseCache cache;
  util::ThreadPool pool(1);
  const auto report = pipeline::analyze_snapshot_series({}, cache, pool);
  EXPECT_TRUE(report.snapshots.empty());
  EXPECT_TRUE(report.diffs.empty());
}

}  // namespace
}  // namespace rd
