#ifndef DEHEALTH_CORE_CANDIDATE_SOURCE_H_
#define DEHEALTH_CORE_CANDIDATE_SOURCE_H_

#include <vector>

#include "common/status.h"
#include "core/top_k.h"
#include "graph/correlation_graph.h"

namespace dehealth {

/// Where per-pair similarity scores and Top-K candidate sets come from.
///
/// The dense path materializes the full |Δ1|×|Δ2| matrix (exact, O(n1·n2)
/// memory); the indexed path (src/index/) answers the same queries from a
/// persistent auxiliary-side index without ever forming the matrix. Both
/// must produce bitwise-identical scores and candidate sets, so every
/// downstream phase (filtering, refined DA, evaluation) can consume either
/// through this interface.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  virtual int num_anonymized() const = 0;
  virtual int num_auxiliary() const = 0;

  /// Exact similarity s_uv of anonymized u against auxiliary v.
  virtual double Score(NodeId u, NodeId v) const = 0;

  /// All of u's scores, in auxiliary-id order. Dense sources return a
  /// reference to their materialized row; others fill *scratch (resized to
  /// num_auxiliary()) and return it — an O(n2) computation, so phases that
  /// stream rows (filtering, mean-verification) pay per-row compute instead
  /// of whole-matrix memory.
  virtual const std::vector<double>& Row(NodeId u,
                                         std::vector<double>* scratch)
      const = 0;

  /// Direct Top-K candidate sets for every anonymized user: per user the
  /// min(k, n2) auxiliary ids with the largest scores, ordered by
  /// decreasing score with ties broken by smaller id — exactly what
  /// SelectTopKCandidates(kDirect) returns on the dense matrix. k must be
  /// >= 1. Row-parallel across num_threads (0 = hardware concurrency) with
  /// thread-count-independent output. The default is TopKForUsers over
  /// every user, inside one core/select_top_k span.
  virtual StatusOr<CandidateSets> TopK(int k, int num_threads) const;

  /// Batch entry point for the serving path: direct Top-K candidate lists
  /// for just the listed anonymized users — result[i] is bitwise-identical
  /// to TopK(k, ...)[users[i]], for any batch composition and thread count.
  /// Fails with InvalidArgument on k < 1 or an out-of-range user id. The
  /// default streams one Row per user through TopKForRow; sources with a
  /// cheaper per-user query (the candidate index) override it.
  virtual StatusOr<CandidateSets> TopKForUsers(const std::vector<int>& users,
                                               int k, int num_threads) const;

  /// The materialized matrix when this source holds one, else nullptr.
  /// Graph-matching candidate selection is inherently global and requires
  /// it.
  virtual const std::vector<std::vector<double>>* DenseMatrix() const {
    return nullptr;
  }
};

/// CandidateSource over a materialized similarity matrix. Borrows the
/// matrix, which must outlive this object; rows must be uniform length.
class DenseCandidateSource final : public CandidateSource {
 public:
  explicit DenseCandidateSource(
      const std::vector<std::vector<double>>& matrix);

  int num_anonymized() const override;
  int num_auxiliary() const override;
  double Score(NodeId u, NodeId v) const override;
  const std::vector<double>& Row(NodeId u,
                                 std::vector<double>* scratch) const override;
  StatusOr<CandidateSets> TopK(int k, int num_threads) const override;
  const std::vector<std::vector<double>>* DenseMatrix() const override;

 private:
  const std::vector<std::vector<double>>* matrix_;
};

}  // namespace dehealth

#endif  // DEHEALTH_CORE_CANDIDATE_SOURCE_H_
