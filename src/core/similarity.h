#ifndef DEHEALTH_CORE_SIMILARITY_H_
#define DEHEALTH_CORE_SIMILARITY_H_

#include <utility>
#include <vector>

#include "core/simd_dispatch.h"
#include "core/uda_graph.h"

namespace dehealth {

/// Weights and parameters of the paper's structural similarity
/// s_uv = c1·s^d_uv + c2·s^s_uv + c3·s^a_uv.
struct SimilarityConfig {
  /// Paper defaults (Section V): low weight on degree and distance because
  /// the health graphs are sparse and disconnected; attribute similarity
  /// dominates.
  double c1 = 0.05;  // degree similarity weight
  double c2 = 0.05;  // distance (landmark) similarity weight
  double c3 = 0.9;   // attribute similarity weight
  int num_landmarks = 50;  // ħ

  /// Scale each attribute's weight l_u(A_i) by the inverse document
  /// frequency log((1+n2)/(1+df_i)) computed over the auxiliary users.
  /// The paper leaves the attribute weighting open; IDF suppresses
  /// population-wide attributes (everyone writes 'e's and DT-NN bigrams)
  /// so the rare, identifying ones dominate — essential when the corpus
  /// is topic-noisy (see the Fig. 4 bench and EXPERIMENTS.md).
  bool idf_weight_attributes = false;

  /// Threads used for landmark precomputation and ComputeMatrix
  /// (0 = hardware concurrency). Results are bitwise-identical for any
  /// value; see DESIGN.md "Threading model".
  int num_threads = 0;

  /// Instruction-set tier of the batched score kernel (--simd). Purely a
  /// throughput knob: every tier is bitwise-identical (DESIGN.md "Score
  /// kernel"). kAuto honors DEHEALTH_SIMD, then CPU detection.
  SimdMode simd = SimdMode::kAuto;
};

/// Borrowed view of one user's precomputed similarity features — the exact
/// inputs of the pair-scoring kernel. All pointers must be non-null.
struct UserFeatureView {
  double degree = 0.0;
  double weighted_degree = 0.0;
  const std::vector<double>* ncs = nullptr;
  const std::vector<double>* hop = nullptr;
  const std::vector<double>* weighted_hop = nullptr;
  const std::vector<std::pair<int, double>>* attributes = nullptr;
};

/// One user's precomputed similarity features — the exact per-side inputs
/// of the pair-scoring kernel. ComputeUserFeatures builds them for the
/// dense StructuralSimilarity and the candidate index alike (the index
/// persists the auxiliary side's), so both paths score the same values.
/// `attributes` is sorted by id and IDF-scaled (when enabled).
struct IndexedUserFeatures {
  double degree = 0.0;
  double weighted_degree = 0.0;
  std::vector<double> ncs;
  std::vector<double> hop;
  std::vector<double> weighted_hop;
  std::vector<std::pair<int, double>> attributes;
};

/// Borrowed kernel view of `f`, which must outlive the view.
UserFeatureView ViewOf(const IndexedUserFeatures& f);

/// Attribute IDF weights over the auxiliary side:
/// idf(A_i) = log((1+n2)/(1+df_i)), df_i = number of auxiliary users
/// having A_i. An empty table with default_idf = 1.0 leaves weights
/// unscaled (IDF off).
struct IdfTable {
  /// (attribute id, idf weight), sorted by id.
  std::vector<std::pair<int, double>> table;
  /// IDF of an attribute no auxiliary user has (df = 0).
  double default_idf = 1.0;
};

/// The IDF table of `auxiliary` — computed once here and looked up by both
/// sides' feature builds (the index persists it verbatim).
IdfTable ComputeIdfTable(const UdaGraph& auxiliary);

/// Every user's features on one side: degree, weighted degree, NCS vector,
/// the ħ = num_landmarks landmark hop and weighted-hop vectors (landmark
/// sweeps run on num_threads threads, 0 = hardware concurrency; results
/// are identical for any value), and the attribute weights l_u(A_i)
/// scaled by A_i's idf entry (default_idf when absent). The one feature
/// builder of phase 1.
std::vector<IndexedUserFeatures> ComputeUserFeatures(const UdaGraph& side,
                                                     int num_landmarks,
                                                     int num_threads,
                                                     const IdfTable& idf);

/// The pair-scoring kernel s_uv = c1·s^d + c2·s^s + c3·s^a. Both the dense
/// path (StructuralSimilarity::Combined) and the candidate index
/// (src/index/) call this ONE compiled function, so their exact scores are
/// bitwise-identical by construction — the determinism contract in
/// DESIGN.md "Candidate index" depends on it.
double CombinedStructuralScore(const SimilarityConfig& config,
                               const UserFeatureView& u,
                               const UserFeatureView& v);

/// Precomputes everything needed to score anonymized-vs-auxiliary user
/// pairs: both sides' ComputeUserFeatures (IDF table from the auxiliary
/// side when enabled). The three components are exposed separately (the
/// theory benches and the ablation bench sweep them independently).
class StructuralSimilarity {
 public:
  /// Both graphs are only read during construction.
  StructuralSimilarity(const UdaGraph& anonymized, const UdaGraph& auxiliary,
                       SimilarityConfig config = {});

  /// s^d: min/max degree ratio + min/max weighted-degree ratio +
  /// cos(D_u, D_v). Range [0, 3].
  double DegreeSimilarity(NodeId u, NodeId v) const;

  /// s^s: cos(H_u(S1), H_v(S2)) + cos(WH_u(S1), WH_v(S2)). Range [0, 2].
  double DistanceSimilarity(NodeId u, NodeId v) const;

  /// s^a: Jaccard + weighted Jaccard over attribute sets. Range [0, 2].
  double AttrSimilarity(NodeId u, NodeId v) const;

  /// c1·s^d + c2·s^s + c3·s^a.
  double Combined(NodeId u, NodeId v) const;

  /// Full similarity matrix: result[u][v] = Combined(u, v). O(n1·n2) —
  /// row-parallel across config().num_threads threads; bitwise-identical
  /// output for any thread count. Rows run through the batched FeatureStore
  /// kernel (config().simd picks the tier), which is bitwise-identical to
  /// the per-pair Combined().
  std::vector<std::vector<double>> ComputeMatrix() const;

  const SimilarityConfig& config() const { return config_; }
  int num_anonymized() const;
  int num_auxiliary() const;

 private:
  const IndexedUserFeatures& Anonymized(NodeId u) const {
    return features_[0][static_cast<size_t>(u)];
  }
  const IndexedUserFeatures& Auxiliary(NodeId v) const {
    return features_[1][static_cast<size_t>(v)];
  }

  SimilarityConfig config_;
  // Per-user features (index 0 = anonymized side, 1 = auxiliary).
  std::vector<IndexedUserFeatures> features_[2];
};

/// Standalone weighted-Jaccard attribute similarity over flattened
/// attribute lists (sorted by id). Exposed for testing.
double FlattenedAttributeSimilarity(
    const std::vector<std::pair<int, int>>& a,
    const std::vector<std::pair<int, int>>& b);

/// Real-weighted variant (used internally when IDF scaling is on):
/// set Jaccard over the ids plus min/max weighted Jaccard over the
/// (already scaled) weights.
double FlattenedAttributeSimilarity(
    const std::vector<std::pair<int, double>>& a,
    const std::vector<std::pair<int, double>>& b);

}  // namespace dehealth

#endif  // DEHEALTH_CORE_SIMILARITY_H_
