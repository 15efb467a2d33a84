#ifndef DEHEALTH_INDEX_INDEXED_SOURCE_H_
#define DEHEALTH_INDEX_INDEXED_SOURCE_H_

#include <vector>

#include "core/candidate_source.h"
#include "index/candidate_index.h"

namespace dehealth {

/// CandidateSource backed by a CandidateIndex: exact scores and Top-K
/// candidate sets without the dense matrix. Construction precomputes the
/// anonymized-side query features (landmark vectors on the anonymized
/// graph, IDF-scaled attributes) — O(ħ·(V+E log V)) once, then every
/// Score/Row/TopK call is matrix-free. The index must outlive this object.
class IndexedCandidateSource final : public CandidateSource {
 public:
  /// `num_threads` only affects construction speed (landmark
  /// precomputation), never results.
  IndexedCandidateSource(const UdaGraph& anonymized,
                         const CandidateIndex& index, int num_threads = 0);

  int num_anonymized() const override;
  int num_auxiliary() const override;
  double Score(NodeId u, NodeId v) const override;
  const std::vector<double>& Row(NodeId u,
                                 std::vector<double>* scratch) const override;

  /// Per-user CandidateIndex::TopKScoredForQuery (row scan into the core
  /// heap selector, ticking the dehealth_index_* counters) instead of the
  /// base class's row copy; TopK (the base default) runs through it too.
  StatusOr<CandidateSets> TopKForUsers(const std::vector<int>& users, int k,
                                       int num_threads) const override;

 private:
  const CandidateIndex* index_;
  std::vector<IndexedUserFeatures> queries_;
};

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_INDEXED_SOURCE_H_
