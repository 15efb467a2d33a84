// Implements index/pipeline.h. Lives in src/shard/ (not src/index/)
// because BuildAttackScoreSource is the one place all score-source modes
// meet — the structural candidate index, the matrix-backed engines, and
// their shard slices — and the slice mode needs src/shard/, which layers
// above src/index/.
#include "index/pipeline.h"

#include <cstdio>
#include <utility>

#include "engines/pipeline.h"
#include "index/indexed_source.h"
#include "index/snapshot.h"
#include "shard/partition.h"
#include "shard/shard_index.h"

namespace dehealth {

namespace {

// One shard's columns [range.begin, range.end) of a full-universe matrix,
// re-indexed to local ids.
std::vector<std::vector<double>> SliceColumns(
    const std::vector<std::vector<double>>& full, const ShardRange& range) {
  std::vector<std::vector<double>> slice(full.size());
  for (size_t u = 0; u < full.size(); ++u)
    slice[u].assign(full[u].begin() + range.begin,
                    full[u].begin() + range.end);
  return slice;
}

// The structural engine's candidate index: loaded from `path` when the
// snapshot matches, else built (and persisted when `path` is non-empty) —
// over the whole auxiliary side, or over this shard's slice in slice mode.
StatusOr<CandidateIndex> LoadOrBuildStructuralIndex(
    const std::string& path, const UdaGraph& auxiliary,
    const SimilarityConfig& sim_config, const DeHealthConfig& config) {
  if (config.shard_count > 1)
    return LoadOrBuildShardIndex(path, auxiliary, sim_config,
                                 config.shard_index, config.shard_count);
  return LoadOrBuildIndex(path, auxiliary, sim_config);
}

}  // namespace

StatusOr<std::unique_ptr<AttackScoreSource>> BuildAttackScoreSource(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config) {
  if (config.shard_count < 1 || config.shard_index < 0 ||
      config.shard_index >= config.shard_count)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: shard_index must be in [0, shard_count)");
  if (config.shard_count > 1 && config.enable_filtering)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: filtering thresholds are global and cannot "
        "be computed on a shard slice");

  auto bundle = std::make_unique<AttackScoreSource>();
  SimilarityConfig sim_config = config.similarity;
  sim_config.num_threads = config.num_threads;
  bundle->shard_index = config.shard_index;
  bundle->shard_count = config.shard_count;
  bundle->universe_size = auxiliary.num_users();
  bundle->universe_fingerprint = FingerprintForIndex(auxiliary);
  const ShardRange range =
      ComputeShardRanges(bundle->universe_size, config.shard_count)
          [static_cast<size_t>(config.shard_index)];
  bundle->shard_begin = range.begin;

  if (config.engine != EngineKind::kStructural) {
    // Matrix-backed engines (--engine=blind|community, src/engines/): the
    // score matrix is built once over the FULL universe, then served
    // dense or column-sliced (--shard-count fleet mode). The candidate
    // index is a structural-kernel artifact, so --index-path is
    // meaningless here and fails fast instead of silently degrading.
    if (!config.index_snapshot_path.empty())
      return Status::InvalidArgument(
          std::string("BuildAttackScoreSource: --index-path only applies "
                      "to the structural engine, not --engine=") +
          EngineKindName(config.engine));
    StatusOr<std::vector<std::vector<double>>> matrix =
        BuildEngineMatrix(anonymized, auxiliary, config);
    if (!matrix.ok()) return matrix.status();
    // Slice mode keeps only this shard's columns — local ids over
    // [begin, end), exactly like the structural index slice.
    bundle->similarity = config.shard_count > 1
                             ? SliceColumns(*matrix, range)
                             : std::move(matrix).value();
    bundle->source =
        std::make_unique<DenseCandidateSource>(bundle->similarity);
    return bundle;
  }

  // Structural engine: the candidate index is the one score source. In
  // slice mode it covers only this shard's auxiliary range, with LOCAL ids
  // — the router (or the operator) re-anchors answers at shard_begin.
  StatusOr<CandidateIndex> index = LoadOrBuildStructuralIndex(
      config.index_snapshot_path, auxiliary, sim_config, config);
  if (!index.ok() && !config.index_snapshot_path.empty()) {
    // Graceful degradation: a snapshot that cannot be loaded, built, or
    // persisted is a cache failing, not the attack — warn and build the
    // same index in memory only.
    std::fprintf(stderr,
                 "warning: index snapshot %s unusable (%s); continuing "
                 "with an in-memory candidate index\n",
                 config.index_snapshot_path.c_str(),
                 index.status().ToString().c_str());
    index = LoadOrBuildStructuralIndex("", auxiliary, sim_config, config);
  }
  if (!index.ok()) return index.status();
  bundle->index = std::make_unique<CandidateIndex>(std::move(index).value());
  // Snapshot loads come back with the default kAuto; the runtime SIMD
  // choice is a per-run knob, never part of the persisted index.
  bundle->index->set_simd_mode(sim_config.simd);
  bundle->source = std::make_unique<IndexedCandidateSource>(
      anonymized, *bundle->index, config.num_threads);
  return bundle;
}

StatusOr<DeHealthResult> RunDeHealthAttack(const UdaGraph& anonymized,
                                           const UdaGraph& auxiliary,
                                           const DeHealthConfig& config) {
  const DeHealth attack(config);
  StatusOr<std::unique_ptr<AttackScoreSource>> scores =
      BuildAttackScoreSource(anonymized, auxiliary, config);
  if (!scores.ok()) return scores.status();
  StatusOr<DeHealthResult> result =
      attack.RunWithSource(anonymized, auxiliary, *(*scores)->source);
  // Moved only after the phases ran on it, so the matrix exists once.
  if (result.ok()) result->similarity = std::move((*scores)->similarity);
  return result;
}

}  // namespace dehealth
