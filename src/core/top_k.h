#ifndef DEHEALTH_CORE_TOP_K_H_
#define DEHEALTH_CORE_TOP_K_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace dehealth {

/// How the Top-K candidate sets are selected from the similarity matrix.
enum class CandidateSelection {
  /// Per anonymized user, the K auxiliary users with the largest
  /// similarity scores.
  kDirect,
  /// The paper's graph-matching variant: repeat K rounds of maximum-weight
  /// bipartite matching, adding each user's matched partner to its
  /// candidate set and deleting the matched edge. Globally consistent but
  /// O(K·n^3) — use at small scale.
  kGraphMatching,
};

/// A per-anonymized-user candidate list, ordered by decreasing similarity.
using CandidateSets = std::vector<std::vector<int>>;

/// One (score, auxiliary id) candidate. The score carries the full double
/// so merged rankings (sharded Top-K, DHQP scored answers) reproduce the
/// dense ordering bitwise.
struct ScoredUser {
  double score = 0.0;
  int user = 0;
};

/// The direct-selection total order: larger score first, ties broken by
/// the smaller auxiliary id — the ONE comparator every Top-K path (dense
/// TopKForRow, the candidate index, the shard merge) ranks with.
inline bool BetterScoredUser(const ScoredUser& a, const ScoredUser& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.user < b.user;
}

/// Merges per-shard Top-K lists into the global Top-K. Each input list
/// must be sorted by BetterScoredUser and hold that shard's best
/// min(k, shard size) candidates with GLOBAL auxiliary ids; the result is
/// the best min(k, Σ sizes) across all lists, sorted by BetterScoredUser —
/// bitwise-identical to ranking the concatenated universe directly,
/// because any global Top-K member is necessarily in its own shard's local
/// Top-K (see DESIGN.md "Sharding").
std::vector<ScoredUser> MergeScoredTopK(
    const std::vector<std::vector<ScoredUser>>& per_shard, int k);

/// Computes Top-K candidate sets. `similarity[u][v]` scores anonymized u
/// against auxiliary v. K must be >= 1 (it is capped at the number of
/// auxiliary users). Direct selection is row-parallel across `num_threads`
/// threads (0 = hardware concurrency) with output independent of the
/// thread count; graph matching is inherently global and runs serially.
/// Graph matching only admits positive-similarity pairs: zero-similarity
/// assignments (which the Hungarian solver may produce once a row is
/// exhausted) are not candidates.
StatusOr<CandidateSets> SelectTopKCandidates(
    const std::vector<std::vector<double>>& similarity, int k,
    CandidateSelection method = CandidateSelection::kDirect,
    int num_threads = 0);

/// The direct selector: the min(k, n) best entries of row[0, n) as
/// (score, id) pairs, best first under BetterScoredUser — one bounded
/// K-heap pass, O(n log k). Every direct Top-K (TopKForRow, hence
/// SelectTopKCandidates(kDirect) and CandidateSource::TopKForUsers, and
/// the candidate index) ranks through this one function, so tie-breaking
/// cannot diverge between them. k <= 0 selects nothing.
std::vector<ScoredUser> SelectTopKScored(const double* row, size_t n, int k);

/// Direct Top-K selection for ONE similarity row: the ids of
/// SelectTopKScored — the min(k, |row|) auxiliary ids ordered by
/// decreasing score, ties broken by smaller id. k must be >= 1.
std::vector<int> TopKForRow(const std::vector<double>& row, int k);

/// Fraction of anonymized users whose true mapping appears in their
/// candidate set (the paper's "successful Top-K DA" rate). `truth[u]` is
/// the auxiliary id or a negative value for non-overlapping users, which
/// are skipped. Returns 0.0 if the two sizes disagree (defined behavior in
/// release builds, not just an assert).
double TopKSuccessRate(const CandidateSets& candidates,
                       const std::vector<int>& truth);

/// Success rates for a sweep of K values over one (large-K) candidate
/// computation: result[i] = success rate when candidate lists are truncated
/// to ks[i]. `ks` must be sorted ascending; candidate lists must be ordered
/// by decreasing similarity (as SelectTopKCandidates returns). Returns all
/// zeros if `candidates` and `truth` sizes disagree.
std::vector<double> TopKSuccessCurve(const CandidateSets& candidates,
                                     const std::vector<int>& truth,
                                     const std::vector<int>& ks);

}  // namespace dehealth

#endif  // DEHEALTH_CORE_TOP_K_H_
