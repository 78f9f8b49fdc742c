#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/evolution.h"
#include "pipeline/parse_cache.h"
#include "pipeline/pipeline.h"
#include "util/thread_pool.h"

namespace rd::pipeline {

// --- Incremental snapshot-series analysis -----------------------------------
//
// The paper's §8.2 longitudinal study takes N ordered snapshots of one
// network's configuration files. Between consecutive snapshots almost every
// file is byte-identical, so the series pipeline re-parses only the routers
// whose text changed (ParseCache) and rebuilds the model and analyses per
// snapshot from the merged parse results. The determinism contract carries
// over from the parallel pipeline: the warm, cached path's output —
// signatures, report JSON, diff chain — is byte-identical to a cold,
// cache-free serial pass at every thread count.

/// One snapshot of the network: a label (e.g. the capture date) and the
/// per-router configuration texts in stable router order.
struct SnapshotInput {
  std::string name;
  std::vector<std::string> texts;
};

/// One snapshot's analysis output plus its cache accounting.
struct SnapshotReport {
  /// Full per-network report (pipeline::analyze_network) for this snapshot.
  NetworkReport report;
  /// Canonical model serialization (pipeline::network_signature); the
  /// differential tests prove warm == cold through this.
  std::string signature;
  /// Parses served from / added to the cache while building this snapshot.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// The whole series: per-snapshot reports and the N-1 consecutive design
/// diffs (analysis::diff_designs applied along the chain).
struct SeriesReport {
  std::vector<SnapshotReport> snapshots;
  std::vector<analysis::DesignDiff> diffs;
};

/// Build one model through the cache: texts are hashed and looked up (in
/// parallel on `pool`), only unseen texts are parsed, and the model is
/// built from the results merged in input index order — with `names`
/// empty, the same Network build_network_serial(texts) produces.
///
/// Non-empty `names` stamp per-file source provenance onto the cached
/// parses. The cache keys on content alone (so one text shared by many
/// files still costs one parse); `names[i]` is then applied to the copy of
/// parse `i` exactly the way `config::parse_config(text, name)` would have:
/// `source_file = name`, and a hostname-less config takes the name as its
/// hostname. This is the construction the rdd daemon and the directory-mode
/// CLIs share, so a resident fleet and a one-shot run build byte-identical
/// models with identical finding provenance. `names` must be empty (no
/// provenance) or `texts.size()` long.
model::Network build_network_cached(const std::vector<std::string>& texts,
                                    const std::vector<std::string>& names,
                                    ParseCache& cache,
                                    util::ThreadPool& pool);

/// Analyze N ordered snapshots incrementally. The cache persists across
/// snapshots (and across calls — prime it with one series, keep it for the
/// next), so an unchanged router costs one hash instead of one parse. The
/// differential tests compare it byte-for-byte against a cold reference
/// (no cache, serial parse, every snapshot from scratch) kept in
/// tests/snapshot_series_test.cpp.
SeriesReport analyze_snapshot_series(const std::vector<SnapshotInput>& series,
                                     ParseCache& cache,
                                     util::ThreadPool& pool);

}  // namespace rd::pipeline
