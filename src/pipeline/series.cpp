#include "pipeline/series.h"

#include <memory>
#include <optional>
#include <utility>

#include "obs/obs.h"

namespace rd::pipeline {

model::Network build_network_cached(const std::vector<std::string>& texts,
                                    const std::vector<std::string>& names,
                                    ParseCache& cache,
                                    util::ThreadPool& pool) {
  // Hash + lookup (+ parse on miss) in parallel; results land in input
  // index order, so the model build sees the same config sequence as the
  // serial path. The cache returns shared immutable results; the model
  // needs owned copies (Network::build moves its inputs in), and copying a
  // parsed config is far cheaper than re-parsing its text.
  auto shared = util::parallel_map(
      pool, texts,
      [&cache](const std::string& text) { return cache.parse(text); });
  obs::Span span("model.build", "pipeline");
  std::vector<config::ParseResult> parses;
  parses.reserve(shared.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    config::ParseResult copy = *shared[i];
    if (!names.empty()) {
      // Reproduce parse_config(text, name) on the content-keyed parse.
      copy.config.source_file = names[i];
      if (copy.config.hostname.empty()) copy.config.hostname = names[i];
    }
    parses.push_back(std::move(copy));
  }
  return model::Network::build_parsed(std::move(parses));
}

SeriesReport analyze_snapshot_series(const std::vector<SnapshotInput>& series,
                                     ParseCache& cache,
                                     util::ThreadPool& pool) {
  SeriesReport out;
  out.snapshots.reserve(series.size());
  if (series.size() > 1) out.diffs.reserve(series.size() - 1);

  // Snapshots are processed in order (each diff needs its predecessor's
  // model); parallelism lives inside each snapshot's parse fan-out.
  std::optional<model::Network> previous;
  for (const auto& snapshot : series) {
    const auto before = cache.stats();
    model::Network network =
        build_network_cached(snapshot.texts, {}, cache, pool);
    const auto after = cache.stats();

    SnapshotReport entry;
    entry.report = analyze_network(snapshot.name, network);
    entry.signature = network_signature(network);
    entry.cache_hits = after.hits - before.hits;
    entry.cache_misses = after.misses - before.misses;
    out.snapshots.push_back(std::move(entry));

    if (previous) out.diffs.push_back(analysis::diff_designs(*previous, network));
    previous = std::move(network);
  }
  return out;
}

}  // namespace rd::pipeline
