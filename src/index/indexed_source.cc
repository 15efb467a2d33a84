#include "index/indexed_source.h"

namespace dehealth {

IndexedCandidateSource::IndexedCandidateSource(const UdaGraph& anonymized,
                                               const CandidateIndex& index,
                                               int num_threads)
    : index_(&index),
      queries_(index.ComputeQueryFeatures(anonymized, num_threads)) {}

int IndexedCandidateSource::num_anonymized() const {
  return static_cast<int>(queries_.size());
}

int IndexedCandidateSource::num_auxiliary() const {
  return index_->num_auxiliary();
}

double IndexedCandidateSource::Score(NodeId u, NodeId v) const {
  return index_->ExactScore(queries_[static_cast<size_t>(u)], v);
}

const std::vector<double>& IndexedCandidateSource::Row(
    NodeId u, std::vector<double>* scratch) const {
  index_->ExactRow(queries_[static_cast<size_t>(u)], scratch);
  return *scratch;
}

std::vector<int> IndexedCandidateSource::TopKRow(NodeId u, int k) const {
  const std::vector<ScoredUser> top =
      index_->TopKScoredForQuery(queries_[static_cast<size_t>(u)], k);
  std::vector<int> ids;
  ids.reserve(top.size());
  for (const ScoredUser& c : top) ids.push_back(c.user);
  return ids;
}

}  // namespace dehealth
