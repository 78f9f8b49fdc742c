// ParseCache: content-addressed memoization of per-router parses. Covers
// hit/miss accounting (deterministic at one thread), identical-text dedup
// (one entry, one shared result), correctness of cached results against
// direct parses, and a concurrent differential matrix at 1/2/8 threads.
// A traced cached build runs its config copies and model build under one
// `model.build` span, as the serial build does.
// Also pins the SHA-1 implementation under the cache to the RFC 3174 test
// vectors — the x86 SHA-NI fast path and the portable path must agree.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "config/writer.h"
#include "obs/obs.h"
#include "pipeline/parse_cache.h"
#include "pipeline/pipeline.h"
#include "pipeline/series.h"
#include "synth/archetypes.h"
#include "util/hash.h"
#include "util/json.h"
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

TEST(Sha1, Rfc3174Vectors) {
  EXPECT_EQ(util::Sha1::hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(util::Sha1::hex("abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(util::Sha1::hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(util::Sha1::hex(std::string(1000000, 'a')),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalUpdatesMatchOneShot) {
  std::string data;
  for (int i = 0; i < 5000; ++i) data += static_cast<char>('a' + i % 26);
  const auto expected = util::Sha1::hash(data);
  // Chunk sizes straddle the 64-byte block boundary from both sides.
  for (const std::size_t chunk : {1u, 3u, 63u, 64u, 65u, 1000u}) {
    util::Sha1 sha;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      sha.update(std::string_view(data).substr(off, chunk));
    }
    EXPECT_EQ(sha.digest(), expected) << "chunk " << chunk;
  }
}

TEST(ParseCache, MissThenHitAccounting) {
  pipeline::ParseCache cache;
  const std::string text = "hostname r1\ninterface Ethernet0\n";

  const auto first = cache.parse(text);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);

  const auto second = cache.parse(text);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // Same content key -> the very same memoized object.
  EXPECT_EQ(first.get(), second.get());
}

TEST(ParseCache, DistinctTextsGetDistinctEntries) {
  pipeline::ParseCache cache;
  const auto a = cache.parse("hostname a\n");
  const auto b = cache.parse("hostname b\n");
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->config.hostname, "a");
  EXPECT_EQ(b->config.hostname, "b");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ParseCache, IdenticalTextsDedupAcrossRouters) {
  // Two routers shipping byte-identical configs (it happens in real fleets:
  // cloned spoke templates) cost one parse, not two.
  pipeline::ParseCache cache;
  const std::string text = "hostname spoke\ninterface Serial0\n shutdown\n";
  std::vector<std::shared_ptr<const config::ParseResult>> parses;
  for (int i = 0; i < 4; ++i) parses.push_back(cache.parse(text));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.entries, 1u);
  for (const auto& p : parses) EXPECT_EQ(p.get(), parses.front().get());
}

TEST(ParseCache, CachedResultsMatchDirectParses) {
  synth::ManagedEnterpriseParams params;
  params.seed = 5;
  params.regions = 2;
  params.spokes_per_region = 6;
  const auto texts = texts_of(synth::make_managed_enterprise(params));

  pipeline::ParseCache cache;
  for (int round = 0; round < 2; ++round) {  // second round is all hits
    for (const auto& text : texts) {
      const auto cached = cache.parse(text);
      const auto direct = config::parse_config(text);
      EXPECT_EQ(config::write_config(cached->config),
                config::write_config(direct.config));
      EXPECT_EQ(cached->diagnostics.size(), direct.diagnostics.size());
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses + stats.hits, 2 * texts.size());
  EXPECT_EQ(stats.entries, stats.misses);
}

TEST(ParseCache, ClearResetsEntriesAndCounters) {
  pipeline::ParseCache cache;
  cache.parse("hostname r1\n");
  cache.parse("hostname r1\n");
  cache.clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// The model built through the cache must be byte-identical to the serial
// cache-free reference at every thread count, warm or cold.
TEST(ParseCache, CachedBuildMatchesSerialAtEveryThreadCount) {
  synth::ManagedEnterpriseParams params;
  params.seed = 17;
  params.regions = 2;
  params.spokes_per_region = 8;
  const auto texts = texts_of(synth::make_managed_enterprise(params));
  const auto reference =
      pipeline::network_signature(pipeline::build_network_serial(texts));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    pipeline::ParseCache cache;
    util::ThreadPool pool(threads);
    for (int round = 0; round < 3; ++round) {
      const auto network = pipeline::build_network_cached(texts, {}, cache, pool);
      EXPECT_EQ(pipeline::network_signature(network), reference)
          << "threads " << threads << " round " << round;
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 3 * texts.size())
        << "threads " << threads;
    // Misses are counted at winning insert, so they reconcile with the
    // entry count exactly even when racing parsers duplicate work.
    EXPECT_EQ(stats.entries, stats.misses) << "threads " << threads;
    EXPECT_LE(stats.entries, texts.size()) << "threads " << threads;
  }
}

TEST(ParseCache, CachedBuildRecordsOneModelBuildSpan) {
  synth::ManagedEnterpriseParams params;
  params.regions = 2;
  params.spokes_per_region = 4;
  const auto texts = texts_of(synth::make_managed_enterprise(params));
  pipeline::ParseCache cache;
  util::ThreadPool pool(2);
  auto& registry = obs::Registry::instance();
  registry.set_tracing(false);
  registry.reset();
  registry.set_tracing(true);
  pipeline::build_network_cached(texts, {}, cache, pool);
  registry.set_tracing(false);
  const auto doc = util::Json::parse(registry.trace_json());
  registry.reset();
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t builds = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto* name = events->at(i)->get("name");
    if (name != nullptr && name->if_string() != nullptr &&
        *name->if_string() == "model.build") {
      ++builds;
    }
  }
  EXPECT_EQ(builds, 1u);
}

// Hammer one identical text from eight threads: whatever the race outcome,
// the ledger must reconcile — one entry, one miss, everything else a hit,
// and any discarded parse visible only in duplicate_parses.
TEST(ParseCache, DuplicateParsesReconcileWithEntries) {
  const std::string text = "hostname racer\ninterface Serial0\n";
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 50;
  pipeline::ParseCache cache;
  for (std::size_t round = 0; round < kRounds; ++round) {
    cache.clear();
    util::ThreadPool pool(kThreads);
    std::vector<std::shared_ptr<const config::ParseResult>> results(kThreads);
    util::parallel_for(pool, kThreads,
                       [&](std::size_t i) { results[i] = cache.parse(text); });
    for (std::size_t i = 1; i < kThreads; ++i) {
      EXPECT_EQ(results[i], results[0]);  // everyone shares the winner
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, kThreads - 1);
    EXPECT_EQ(stats.hits + stats.misses, kThreads);
    EXPECT_LT(stats.duplicate_parses, kThreads);  // winner never discards
  }
}

TEST(Stress, ConcurrentCacheParsesStayDeterministic) {
  synth::ManagedEnterpriseParams params;
  params.seed = 23;
  params.regions = 2;
  params.spokes_per_region = 10;
  const auto texts = texts_of(synth::make_managed_enterprise(params));
  const auto reference =
      pipeline::network_signature(pipeline::build_network_serial(texts));

  // One shared cache hammered by repeated 8-way builds: exercises the
  // racing-parser path (both parse, first insert wins) under TSan.
  pipeline::ParseCache cache;
  util::ThreadPool pool(8);
  for (int round = 0; round < 25; ++round) {
    const auto network = pipeline::build_network_cached(texts, {}, cache, pool);
    ASSERT_EQ(pipeline::network_signature(network), reference)
        << "round " << round;
  }
}

}  // namespace
}  // namespace rd
