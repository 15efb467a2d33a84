#include "index/indexed_source.h"

#include "common/parallel.h"

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

StatusOr<CandidateSets> IndexedCandidateSource::TopKForUsers(
    const std::vector<int>& users, int k, int num_threads) const {
  if (k < 1)
    return Status::InvalidArgument(
        "IndexedCandidateSource::TopKForUsers: k must be >= 1");
  const int n1 = num_anonymized();
  for (int u : users)
    if (u < 0 || u >= n1)
      return Status::InvalidArgument(
          "IndexedCandidateSource::TopKForUsers: user id " +
          std::to_string(u) + " out of range [0, " + std::to_string(n1) +
          ")");
  CandidateSets result(users.size());
  ParallelFor(
      0, static_cast<int64_t>(users.size()),
      [&](int64_t i) {
        const std::vector<ScoredUser> top = index_->TopKScoredForQuery(
            queries_[static_cast<size_t>(users[static_cast<size_t>(i)])], k);
        std::vector<int>& ids = result[static_cast<size_t>(i)];
        ids.reserve(top.size());
        for (const ScoredUser& c : top) ids.push_back(c.user);
      },
      num_threads);
  return result;
}

}  // namespace dehealth
