#ifndef DEHEALTH_INDEX_PIPELINE_H_
#define DEHEALTH_INDEX_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/de_health.h"
#include "core/uda_graph.h"
#include "index/candidate_index.h"

namespace dehealth {

/// The phase-1a score source plus the storage it borrows — one owning
/// bundle shared by the one-shot pipeline (RunDeHealthAttack), the serving
/// engine (QueryEngine) and the checkpointing job runner (src/job/), so
/// all three construct scores identically and answers can never drift.
/// Heap-allocated because `source` borrows the sibling members by address.
struct AttackScoreSource {
  /// Matrix-backed engines (blind, community): the materialized
  /// |Δ1|×|Δ2| matrix (or its shard's columns) `source` borrows.
  std::vector<std::vector<double>> similarity;
  /// Structural engine: the candidate index `source` borrows.
  std::unique_ptr<CandidateIndex> index;
  std::unique_ptr<CandidateSource> source;
  /// Shard identity of this bundle (filled in every mode; trivially 0 of 1
  /// outside slice mode). `universe_size`/`universe_fingerprint` always
  /// describe the FULL auxiliary side, and `shard_begin` is the global
  /// auxiliary id of the source's local id 0 — what a slice-mode backend
  /// adds back when answering DHQP clients, and what the router checks
  /// across backends before serving.
  int shard_index = 0;
  int shard_count = 1;
  int shard_begin = 0;
  int universe_size = 0;
  uint64_t universe_fingerprint = 0;
};

/// Builds the score source the config asks for. The structural engine
/// always streams rows from the auxiliary-side candidate index — loaded
/// from config.index_snapshot_path when the snapshot matches, rebuilt +
/// saved otherwise, in memory only when the path is empty — and never
/// forms the |Δ1|×|Δ2| matrix. The blind and community engines build their
/// matrix. Slice mode (config.shard_count > 1) covers one shard's range of
/// local auxiliary ids. Graceful degradation: a snapshot path that cannot
/// be loaded/built/persisted warns on stderr and falls back to an in-memory
/// index — an unusable snapshot file never takes the attack down with it.
/// Defined in src/shard/attack_pipeline.cc (the slice mode pulls in
/// src/shard/, which layers above src/index/).
StatusOr<std::unique_ptr<AttackScoreSource>> BuildAttackScoreSource(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config);

/// Runs the De-Health attack end-to-end over BuildAttackScoreSource's
/// score source. For the structural engine, scores, candidate sets,
/// filtering and refined-DA predictions are bitwise-identical to the dense
/// reference DeHealth::Run, and DeHealthResult::similarity stays empty (the
/// matrix is never formed); the matrix-backed engines return theirs.
/// config.job_dir is ignored here — use RunDeHealthAttackJob
/// (src/job/runner.h) for the checkpointed variant.
StatusOr<DeHealthResult> RunDeHealthAttack(const UdaGraph& anonymized,
                                           const UdaGraph& auxiliary,
                                           const DeHealthConfig& config);

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_PIPELINE_H_
