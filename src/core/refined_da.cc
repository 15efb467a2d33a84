#include "core/refined_da.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/knn.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"
#include "ml/metrics.h"
#include "ml/nearest_centroid.h"
#include "ml/rlsc.h"

namespace dehealth {

const char* LearnerKindName(LearnerKind kind) {
  switch (kind) {
    case LearnerKind::kKnn: return "KNN";
    case LearnerKind::kSmoSvm: return "SMO";
    case LearnerKind::kRlsc: return "RLSC";
    case LearnerKind::kNearestCentroid: return "NearestCentroid";
  }
  return "?";
}

namespace {

std::unique_ptr<Classifier> MakeLearner(const RefinedDaConfig& config) {
  switch (config.learner) {
    case LearnerKind::kKnn:
      return std::make_unique<KnnClassifier>(config.knn_k);
    case LearnerKind::kSmoSvm:
      return std::make_unique<SmoSvmClassifier>(config.svm);
    case LearnerKind::kRlsc:
      return std::make_unique<RlscClassifier>(config.rlsc_lambda);
    case LearnerKind::kNearestCentroid:
      return std::make_unique<NearestCentroidClassifier>();
  }
  return nullptr;
}

/// Collects the union of nonzero feature ids across a set of sparse
/// vectors and maps them to compact dense indices — the per-user training
/// problems only touch a few hundred of the ~1.8K feature dimensions.
class CompactIndex {
 public:
  void Collect(const SparseVector& v) {
    for (const auto& [id, value] : v.entries()) {
      if (index_.insert({id, static_cast<int>(index_.size())}).second) {
        // inserted
      }
    }
  }

  int dims() const { return static_cast<int>(index_.size()); }

  std::vector<double> Densify(const SparseVector& v, int extra_dims) const {
    std::vector<double> dense(index_.size() + static_cast<size_t>(extra_dims),
                              0.0);
    for (const auto& [id, value] : v.entries()) {
      auto it = index_.find(id);
      if (it != index_.end()) dense[static_cast<size_t>(it->second)] = value;
    }
    return dense;
  }

 private:
  std::unordered_map<int, int> index_;
};

constexpr int kNumStructuralFeatures = 3;

void AppendStructural(const UdaGraph& side, NodeId user,
                      std::vector<double>& dense) {
  const size_t base = dense.size() - kNumStructuralFeatures;
  dense[base + 0] = static_cast<double>(side.graph.Degree(user));
  dense[base + 1] = side.graph.WeightedDegree(user);
  dense[base + 2] = std::log(
      1.0 + static_cast<double>(side.profiles[static_cast<size_t>(user)]
                                    .num_posts()));
}

/// The mean-verification acceptance test (see the RefinedDaConfig docs):
/// the predicted user's similarity, measured above the per-row floor, must
/// exceed the mean of the other candidates' by a factor (1 + r).
bool PassesMeanVerification(const std::vector<double>& row,
                            const std::vector<int>& candidate_set,
                            int predicted, double r) {
  const double floor = *std::min_element(row.begin(), row.end());
  double mean = 0.0;
  int competitors = 0;
  for (int w : candidate_set) {
    if (w == predicted) continue;
    mean += row[static_cast<size_t>(w)] - floor;
    ++competitors;
  }
  if (competitors == 0) return true;
  mean /= static_cast<double>(competitors);
  return row[static_cast<size_t>(predicted)] - floor >= (1.0 + r) * mean;
}

/// Per-user outcome slot: each parallel task writes only its own entry.
struct UserOutcome {
  int prediction = kNotPresent;
  bool rejected = false;
};

/// The per-user refined-DA problem: assemble labels (+ decoys), train the
/// per-user classifier, classify u's posts, verify. Pure function of its
/// inputs — the decoy stream comes from a per-user Rng the caller derives
/// as Rng(MixSeed(seed, u)), so the outcome does not depend on which
/// thread runs it or in what order.
Status RefineOneUser(const UdaGraph& anonymized, const UdaGraph& auxiliary,
                     const CandidateSets& candidates,
                     const CandidateSource& scores,
                     const RefinedDaConfig& config, NodeId u,
                     UserOutcome& out) {
  const int extra_dims =
      config.include_structural_features ? kNumStructuralFeatures : 0;
  const auto& posts_u = anonymized.post_features[static_cast<size_t>(u)];
  if (posts_u.empty() || candidates[static_cast<size_t>(u)].empty())
    return Status();

  // Assemble the label set: candidates plus (optionally) decoys.
  std::vector<int> labels = candidates[static_cast<size_t>(u)];
  std::unordered_set<int> decoys;
  if (config.verification == VerificationScheme::kFalseAddition) {
    Rng rng(MixSeed(config.seed, static_cast<uint64_t>(u)));
    const int n2 = auxiliary.num_users();
    std::unordered_set<int> in_set(labels.begin(), labels.end());
    int want = config.false_addition_count > 0
                   ? config.false_addition_count
                   : static_cast<int>(labels.size());
    want = std::min(want, n2 - static_cast<int>(in_set.size()));
    int guard = 0;
    while (static_cast<int>(decoys.size()) < want && guard++ < 50 * want) {
      const int v = static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(n2)));
      if (in_set.count(v)) continue;
      if (decoys.insert(v).second) labels.push_back(v);
    }
  }

  // Assemble sparse training samples: one per auxiliary post, or one
  // aggregated instance per candidate in user-level mode.
  std::vector<std::pair<SparseVector, int>> train_sparse;
  std::vector<SparseVector> query_sparse;
  if (config.user_level_instances) {
    for (int v : labels) {
      const UserProfile& profile =
          auxiliary.profiles[static_cast<size_t>(v)];
      if (profile.num_posts() == 0) continue;
      train_sparse.emplace_back(profile.MeanFeatures(), v);
    }
    query_sparse.push_back(
        anonymized.profiles[static_cast<size_t>(u)].MeanFeatures());
  } else {
    for (int v : labels)
      for (const SparseVector& f :
           auxiliary.post_features[static_cast<size_t>(v)])
        train_sparse.emplace_back(f, v);
    query_sparse.assign(posts_u.begin(), posts_u.end());
  }
  if (train_sparse.empty()) return Status();

  CompactIndex index;
  for (const auto& [f, v] : train_sparse) index.Collect(f);
  for (const SparseVector& f : query_sparse) index.Collect(f);

  Dataset train(static_cast<size_t>(index.dims() + extra_dims));
  for (const auto& [f, v] : train_sparse) {
    std::vector<double> dense = index.Densify(f, extra_dims);
    if (extra_dims > 0) AppendStructural(auxiliary, v, dense);
    DEHEALTH_RETURN_IF_ERROR(train.Add({std::move(dense), v}));
  }

  StandardScaler scaler;
  DEHEALTH_RETURN_IF_ERROR(scaler.Fit(train));
  const Dataset scaled = scaler.TransformDataset(train);

  std::unique_ptr<Classifier> learner = MakeLearner(config);
  if (learner == nullptr)
    return Status::InvalidArgument("RunRefinedDa: unknown learner");
  DEHEALTH_RETURN_IF_ERROR(learner->Fit(scaled));

  // Aggregate decision scores over the query vectors (u's posts, or
  // the single user-level aggregate).
  const std::vector<int>& classes = learner->classes();
  std::vector<double> total_scores(classes.size(), 0.0);
  for (const SparseVector& f : query_sparse) {
    std::vector<double> dense = index.Densify(f, extra_dims);
    if (extra_dims > 0) AppendStructural(anonymized, u, dense);
    const std::vector<double> decision =
        learner->DecisionScores(scaler.Transform(dense));
    if (config.aggregation ==
        RefinedDaConfig::PostAggregation::kMajorityVote) {
      size_t argmax = 0;
      for (size_t c = 1; c < decision.size(); ++c)
        if (decision[c] > decision[argmax]) argmax = c;
      total_scores[argmax] += 1.0;
    } else {
      for (size_t c = 0; c < decision.size(); ++c)
        total_scores[c] += decision[c];
    }
  }
  size_t best = 0;
  for (size_t c = 1; c < total_scores.size(); ++c)
    if (total_scores[c] > total_scores[best]) best = c;
  const int predicted = classes[best];

  // Verification.
  if (config.verification == VerificationScheme::kFalseAddition &&
      decoys.count(predicted)) {
    out.rejected = true;  // u → ⊥
    return Status();
  }
  if (config.verification == VerificationScheme::kMeanVerification) {
    std::vector<double> scratch;
    if (!PassesMeanVerification(scores.Row(u, &scratch),
                                candidates[static_cast<size_t>(u)],
                                predicted, config.mean_verification_r)) {
      out.rejected = true;  // u → ⊥
      return Status();
    }
  }
  out.prediction = predicted;
  return Status();
}

// The one refined-DA batch loop: one independent training problem per
// listed user; each task writes only its own outcome/status slot, so
// predictions are identical for any thread count and batch composition.
// `caller` prefixes validation errors and `span_name` names the trace span.
StatusOr<RefinedDaResult> RefineBatch(
    const char* caller, const char* span_name, const UdaGraph& anonymized,
    const UdaGraph& auxiliary, const std::vector<int>& users,
    const CandidateSets& candidates, const std::vector<bool>* rejected,
    const CandidateSource& scores, const RefinedDaConfig& config) {
  const int n1 = anonymized.num_users();
  if (static_cast<int>(candidates.size()) != n1)
    return Status::InvalidArgument(
        std::string(caller) + ": candidate set count != anonymized users");
  if (scores.num_anonymized() != n1)
    return Status::InvalidArgument(
        std::string(caller) + ": similarity row count != anonymized users");
  for (int u : users)
    if (u < 0 || u >= n1)
      return Status::InvalidArgument(
          std::string(caller) + ": user id " + std::to_string(u) +
          " out of range [0, " + std::to_string(n1) + ")");
  obs::Span span("core", span_name);
  span.SetArg("users", static_cast<int64_t>(users.size()));
  obs::GetCoreMetrics().refined_users->Increment(users.size());

  std::vector<UserOutcome> outcomes(users.size());
  std::vector<Status> statuses(users.size());
  ParallelFor(
      0, static_cast<int64_t>(users.size()),
      [&](int64_t i) {
        const NodeId u = static_cast<NodeId>(users[static_cast<size_t>(i)]);
        if (rejected != nullptr && (*rejected)[static_cast<size_t>(u)]) {
          outcomes[static_cast<size_t>(i)].rejected = true;
          return;  // filtering already concluded u → ⊥
        }
        statuses[static_cast<size_t>(i)] =
            RefineOneUser(anonymized, auxiliary, candidates, scores, config,
                          u, outcomes[static_cast<size_t>(i)]);
      },
      config.num_threads);
  // Surface the first (lowest-index) error, as a serial loop would.
  for (const Status& st : statuses)
    if (!st.ok()) return st;

  RefinedDaResult result;
  result.predictions.assign(users.size(), kNotPresent);
  result.rejected.assign(users.size(), false);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    result.predictions[i] = outcomes[i].prediction;
    result.rejected[i] = outcomes[i].rejected;
    if (outcomes[i].rejected) ++result.num_rejected;
  }
  return result;
}

}  // namespace

StatusOr<RefinedDaResult> RunRefinedDa(const UdaGraph& anonymized,
                                       const UdaGraph& auxiliary,
                                       const CandidateSets& candidates,
                                       const std::vector<bool>* rejected,
                                       const CandidateSource& scores,
                                       const RefinedDaConfig& config) {
  std::vector<int> all(static_cast<size_t>(anonymized.num_users()));
  std::iota(all.begin(), all.end(), 0);
  return RefineBatch("RunRefinedDa", "refined_da", anonymized, auxiliary,
                     all, candidates, rejected, scores, config);
}

StatusOr<RefinedDaResult> RunRefinedDa(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const CandidateSets& candidates, const std::vector<bool>* rejected,
    const std::vector<std::vector<double>>& similarity,
    const RefinedDaConfig& config) {
  const DenseCandidateSource source(similarity);
  return RunRefinedDa(anonymized, auxiliary, candidates, rejected, source,
                      config);
}

StatusOr<RefinedDaResult> RunRefinedDaForUsers(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const std::vector<int>& users, const CandidateSets& candidates,
    const std::vector<bool>* rejected, const CandidateSource& scores,
    const RefinedDaConfig& config) {
  return RefineBatch("RunRefinedDaForUsers", "refined_da_for_users",
                     anonymized, auxiliary, users, candidates, rejected,
                     scores, config);
}

StatusOr<RefinedDaResult> RunRefinedDaShared(const UdaGraph& anonymized,
                                             const UdaGraph& auxiliary,
                                             const CandidateSets& candidates,
                                             const CandidateSource& scores,
                                             const RefinedDaConfig& config) {
  const int n1 = anonymized.num_users();
  if (static_cast<int>(candidates.size()) != n1)
    return Status::InvalidArgument(
        "RunRefinedDaShared: candidate set count != anonymized users");
  if (scores.num_anonymized() != n1)
    return Status::InvalidArgument(
        "RunRefinedDaShared: similarity row count != anonymized users");
  for (const auto& set : candidates)
    if (set != candidates.front())
      return Status::InvalidArgument(
          "RunRefinedDaShared: candidate sets are not identical");

  RefinedDaResult result;
  result.predictions.assign(static_cast<size_t>(n1), kNotPresent);
  result.rejected.assign(static_cast<size_t>(n1), false);
  if (n1 == 0) return result;
  const std::vector<int>& labels = candidates.front();
  if (labels.empty()) return result;

  const int extra_dims =
      config.include_structural_features ? kNumStructuralFeatures : 0;

  // Shared training samples (per post, or one aggregate per candidate in
  // user-level mode) and per-user query vectors.
  std::vector<std::pair<SparseVector, int>> train_sparse;
  std::vector<std::vector<SparseVector>> queries(static_cast<size_t>(n1));
  if (config.user_level_instances) {
    for (int v : labels) {
      const UserProfile& profile =
          auxiliary.profiles[static_cast<size_t>(v)];
      if (profile.num_posts() == 0) continue;
      train_sparse.emplace_back(profile.MeanFeatures(), v);
    }
    for (NodeId u = 0; u < n1; ++u)
      if (anonymized.profiles[static_cast<size_t>(u)].num_posts() > 0)
        queries[static_cast<size_t>(u)].push_back(
            anonymized.profiles[static_cast<size_t>(u)].MeanFeatures());
  } else {
    for (int v : labels)
      for (const SparseVector& f :
           auxiliary.post_features[static_cast<size_t>(v)])
        train_sparse.emplace_back(f, v);
    for (NodeId u = 0; u < n1; ++u)
      queries[static_cast<size_t>(u)].assign(
          anonymized.post_features[static_cast<size_t>(u)].begin(),
          anonymized.post_features[static_cast<size_t>(u)].end());
  }
  if (train_sparse.empty()) return result;

  CompactIndex index;
  for (const auto& [f, v] : train_sparse) index.Collect(f);
  for (const auto& user_queries : queries)
    for (const SparseVector& f : user_queries) index.Collect(f);

  Dataset train(static_cast<size_t>(index.dims() + extra_dims));
  for (const auto& [f, v] : train_sparse) {
    std::vector<double> dense = index.Densify(f, extra_dims);
    if (extra_dims > 0) AppendStructural(auxiliary, v, dense);
    DEHEALTH_RETURN_IF_ERROR(train.Add({std::move(dense), v}));
  }

  StandardScaler scaler;
  DEHEALTH_RETURN_IF_ERROR(scaler.Fit(train));
  const Dataset scaled = scaler.TransformDataset(train);
  std::unique_ptr<Classifier> learner = MakeLearner(config);
  if (learner == nullptr)
    return Status::InvalidArgument("RunRefinedDaShared: unknown learner");
  DEHEALTH_RETURN_IF_ERROR(learner->Fit(scaled));

  // Classification of each anonymized user against the one shared learner
  // is read-only on the model, so the per-user loop parallelizes with
  // per-slot writes.
  const std::vector<int>& classes = learner->classes();
  std::vector<UserOutcome> outcomes(static_cast<size_t>(n1));
  ParallelFor(
      0, n1,
      [&](int64_t ui) {
        const NodeId u = static_cast<NodeId>(ui);
        const auto& user_queries = queries[static_cast<size_t>(u)];
        if (user_queries.empty()) return;
        std::vector<double> total_scores(classes.size(), 0.0);
        for (const SparseVector& f : user_queries) {
          std::vector<double> dense = index.Densify(f, extra_dims);
          if (extra_dims > 0) AppendStructural(anonymized, u, dense);
          const std::vector<double> decision =
              learner->DecisionScores(scaler.Transform(dense));
          if (config.aggregation ==
              RefinedDaConfig::PostAggregation::kMajorityVote) {
            size_t argmax = 0;
            for (size_t c = 1; c < decision.size(); ++c)
              if (decision[c] > decision[argmax]) argmax = c;
            total_scores[argmax] += 1.0;
          } else {
            for (size_t c = 0; c < decision.size(); ++c)
              total_scores[c] += decision[c];
          }
        }
        size_t best = 0;
        for (size_t c = 1; c < total_scores.size(); ++c)
          if (total_scores[c] > total_scores[best]) best = c;
        const int predicted = classes[best];

        if (config.verification == VerificationScheme::kMeanVerification) {
          std::vector<double> scratch;
          if (!PassesMeanVerification(scores.Row(u, &scratch), labels,
                                      predicted,
                                      config.mean_verification_r)) {
            outcomes[static_cast<size_t>(u)].rejected = true;  // u → ⊥
            return;
          }
        }
        outcomes[static_cast<size_t>(u)].prediction = predicted;
      },
      config.num_threads);
  for (size_t u = 0; u < outcomes.size(); ++u) {
    result.predictions[u] = outcomes[u].prediction;
    result.rejected[u] = outcomes[u].rejected;
    if (outcomes[u].rejected) ++result.num_rejected;
  }
  return result;
}

StatusOr<RefinedDaResult> RunRefinedDaShared(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const CandidateSets& candidates,
    const std::vector<std::vector<double>>& similarity,
    const RefinedDaConfig& config) {
  const DenseCandidateSource source(similarity);
  return RunRefinedDaShared(anonymized, auxiliary, candidates, source,
                            config);
}

}  // namespace dehealth
