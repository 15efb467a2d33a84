#include "core/candidate_source.h"

#include <numeric>

#include "common/parallel.h"
#include "obs/trace.h"

namespace dehealth {

StatusOr<CandidateSets> CandidateSource::TopKForUsers(
    const std::vector<int>& users, int k, int num_threads) const {
  if (k < 1)
    return Status::InvalidArgument(
        "CandidateSource::TopKForUsers: k must be >= 1");
  const int n1 = num_anonymized();
  for (int u : users)
    if (u < 0 || u >= n1)
      return Status::InvalidArgument(
          "CandidateSource::TopKForUsers: user id " + std::to_string(u) +
          " out of range [0, " + std::to_string(n1) + ")");
  CandidateSets result(users.size());
  // Each task owns one output slot, so the lists are identical for any
  // thread count.
  ParallelFor(
      0, static_cast<int64_t>(users.size()),
      [&](int64_t i) {
        result[static_cast<size_t>(i)] =
            TopKRow(users[static_cast<size_t>(i)], k);
      },
      num_threads);
  return result;
}

std::vector<int> CandidateSource::TopKRow(NodeId u, int k) const {
  std::vector<double> scratch;
  return TopKForRow(Row(u, &scratch), k);
}

StatusOr<CandidateSets> CandidateSource::TopK(int k, int num_threads) const {
  if (k < 1)
    return Status::InvalidArgument("CandidateSource::TopK: k must be >= 1");
  obs::Span span("core", "select_top_k");
  span.SetArg("rows", num_anonymized());
  std::vector<int> users(static_cast<size_t>(num_anonymized()));
  std::iota(users.begin(), users.end(), 0);
  return TopKForUsers(users, k, num_threads);
}

DenseCandidateSource::DenseCandidateSource(
    const std::vector<std::vector<double>>& matrix)
    : matrix_(&matrix) {}

int DenseCandidateSource::num_anonymized() const {
  return static_cast<int>(matrix_->size());
}

int DenseCandidateSource::num_auxiliary() const {
  return matrix_->empty() ? 0 : static_cast<int>(matrix_->front().size());
}

double DenseCandidateSource::Score(NodeId u, NodeId v) const {
  return (*matrix_)[static_cast<size_t>(u)][static_cast<size_t>(v)];
}

const std::vector<double>& DenseCandidateSource::Row(
    NodeId u, std::vector<double>* /*scratch*/) const {
  return (*matrix_)[static_cast<size_t>(u)];
}

StatusOr<CandidateSets> DenseCandidateSource::TopK(int k,
                                                   int num_threads) const {
  return SelectTopKCandidates(*matrix_, k, CandidateSelection::kDirect,
                              num_threads);
}

const std::vector<std::vector<double>>* DenseCandidateSource::DenseMatrix()
    const {
  return matrix_;
}

}  // namespace dehealth
