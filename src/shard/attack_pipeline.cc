// Implements index/pipeline.h. Lives in src/shard/ (not src/index/)
// because BuildAttackScoreSource is the one place all three score-source
// modes meet — dense, indexed, and shard slice — and the slice mode needs
// src/shard/, which layers above src/index/.
#include "index/pipeline.h"

#include <cstdio>
#include <utility>

#include "engines/pipeline.h"
#include "index/indexed_source.h"
#include "index/snapshot.h"
#include "obs/standard_metrics.h"
#include "shard/partition.h"
#include "shard/shard_index.h"

namespace dehealth {

namespace {

void WarnDenseFallback(const Status& status) {
  std::fprintf(stderr,
               "warning: candidate index unavailable (%s); falling back "
               "to dense similarity path\n",
               status.ToString().c_str());
  obs::GetIndexMetrics().dense_fallbacks->Increment();
}

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

  if (config.engine != EngineKind::kStructural) {
    // Matrix-backed engines (--engine=blind|community, src/engines/): the
    // score matrix is built once over the FULL universe, then served
    // dense or column-sliced (--shard-count fleet mode). The candidate
    // index is a structural-kernel artifact, so the index knobs are
    // meaningless here and fail fast instead of silently degrading.
    if (config.use_index || !config.index_snapshot_path.empty())
      return Status::InvalidArgument(
          std::string("BuildAttackScoreSource: --index/--index-path only "
                      "apply to the structural engine, not --engine=") +
          EngineKindName(config.engine));
    StatusOr<std::vector<std::vector<double>>> matrix =
        BuildEngineMatrix(anonymized, auxiliary, config);
    if (!matrix.ok()) return matrix.status();
    if (config.shard_count > 1) {
      // Slice mode: keep only this shard's columns, exactly like the
      // structural dense-slice path — local ids over [begin, end).
      const ShardRange range =
          ComputeShardRanges(bundle->universe_size, config.shard_count)
              [static_cast<size_t>(config.shard_index)];
      bundle->shard_begin = range.begin;
      bundle->similarity = SliceColumns(*matrix, range);
      bundle->source =
          std::make_unique<DenseCandidateSource>(bundle->similarity);
      return bundle;
    }
    bundle->similarity = std::move(matrix).value();
    bundle->source =
        std::make_unique<DenseCandidateSource>(bundle->similarity);
    return bundle;
  }

  if (config.shard_count > 1) {
    // Slice mode: this process serves only its shard's auxiliary range,
    // with LOCAL ids — the router (or the operator) re-anchors answers at
    // shard_begin. Always index-backed: the slice IS a candidate index.
    const ShardRange range =
        ComputeShardRanges(bundle->universe_size, config.shard_count)
            [static_cast<size_t>(config.shard_index)];
    bundle->shard_begin = range.begin;
    StatusOr<CandidateIndex> index = LoadOrBuildShardIndex(
        config.index_snapshot_path, auxiliary, sim_config,
        config.shard_index, config.shard_count);
    if (index.ok()) {
      bundle->index =
          std::make_unique<CandidateIndex>(std::move(index).value());
      bundle->index->set_simd_mode(sim_config.simd);
      bundle->source = std::make_unique<IndexedCandidateSource>(
          anonymized, *bundle->index, config.num_threads);
      return bundle;
    }
    // Dense-slice fallback: compute the full matrix and keep only this
    // shard's columns, so the slice still answers with local ids.
    WarnDenseFallback(index.status());
    bundle->degraded_to_dense = true;
    const StructuralSimilarity similarity(anonymized, auxiliary, sim_config);
    bundle->similarity = SliceColumns(similarity.ComputeMatrix(), range);
    bundle->source =
        std::make_unique<DenseCandidateSource>(bundle->similarity);
    return bundle;
  }

  if (config.use_index) {
    StatusOr<CandidateIndex> index =
        LoadOrBuildIndex(config.index_snapshot_path, auxiliary, sim_config);
    if (index.ok()) {
      bundle->index =
          std::make_unique<CandidateIndex>(std::move(index).value());
      // Snapshot loads come back with the default kAuto; the runtime SIMD
      // choice is a per-run knob, never part of the persisted index.
      bundle->index->set_simd_mode(sim_config.simd);
      bundle->source = std::make_unique<IndexedCandidateSource>(
          anonymized, *bundle->index, config.num_threads);
      return bundle;
    }
    // Graceful degradation: an index that cannot be loaded, built, or
    // persisted is a performance feature failing, not a correctness one —
    // warn and continue on the dense path instead of failing the attack.
    WarnDenseFallback(index.status());
    bundle->degraded_to_dense = true;
  }

  const StructuralSimilarity similarity(anonymized, auxiliary, sim_config);
  bundle->similarity = similarity.ComputeMatrix();
  bundle->source = std::make_unique<DenseCandidateSource>(bundle->similarity);
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
