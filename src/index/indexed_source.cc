#include "index/indexed_source.h"

#include "common/parallel.h"
#include "obs/trace.h"

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

StatusOr<CandidateSets> IndexedCandidateSource::TopK(int k,
                                                     int num_threads) const {
  if (k < 1)
    return Status::InvalidArgument(
        "IndexedCandidateSource::TopK: k must be >= 1");
  obs::Span span("index", "indexed_top_k");
  span.SetArg("rows", static_cast<int64_t>(queries_.size()));
  CandidateSets result(queries_.size());
  // Row-parallel like the dense path: each task owns one preallocated
  // output slot, so candidate sets are identical for any thread count.
  ParallelFor(
      0, static_cast<int64_t>(queries_.size()),
      [&](int64_t u) {
        result[static_cast<size_t>(u)] =
            index_->TopKForQuery(queries_[static_cast<size_t>(u)], k);
      },
      num_threads);
  return result;
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
        result[static_cast<size_t>(i)] = index_->TopKForQuery(
            queries_[static_cast<size_t>(users[static_cast<size_t>(i)])], k);
      },
      num_threads);
  return result;
}

}  // namespace dehealth
