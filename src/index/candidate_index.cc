#include "index/candidate_index.h"

#include <algorithm>

#include "obs/standard_metrics.h"

namespace dehealth {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(uint64_t& h, const void* bytes, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void FnvMixValue(uint64_t& h, T value) {
  FnvMix(h, &value, sizeof(value));
}

}  // namespace

uint64_t FingerprintForIndex(const UdaGraph& side) {
  uint64_t h = kFnvOffset;
  const int n = side.num_users();
  FnvMixValue(h, n);
  for (NodeId u = 0; u < n; ++u) {
    FnvMixValue(h, side.graph.Degree(u));
    FnvMixValue(h, side.graph.WeightedDegree(u));
    const UserProfile& profile = side.profiles[static_cast<size_t>(u)];
    FnvMixValue(h, profile.num_posts());
    FnvMixValue(h, static_cast<int>(profile.attributes().size()));
    for (const auto& [id, weight] : profile.attributes()) {
      FnvMixValue(h, id);
      FnvMixValue(h, weight);
    }
  }
  return h;
}

CandidateIndex::CandidateIndex(CandidateIndexData data)
    : data_(std::move(data)) {}

SimilarityConfig CandidateIndex::similarity_config() const {
  SimilarityConfig config;
  config.c1 = data_.c1;
  config.c2 = data_.c2;
  config.c3 = data_.c3;
  config.num_landmarks = data_.num_landmarks;
  config.idf_weight_attributes = data_.idf_weight_attributes;
  config.num_threads = 0;
  config.simd = simd_mode_;
  return config;
}

StatusOr<CandidateIndex> CandidateIndex::Build(
    const UdaGraph& auxiliary, const SimilarityConfig& config) {
  CandidateIndexData data;
  data.c1 = config.c1;
  data.c2 = config.c2;
  data.c3 = config.c3;
  data.num_landmarks = config.num_landmarks;
  data.idf_weight_attributes = config.idf_weight_attributes;
  data.auxiliary_fingerprint = FingerprintForIndex(auxiliary);

  if (data.idf_weight_attributes) data.idf = ComputeIdfTable(auxiliary);
  data.users = ComputeUserFeatures(auxiliary, data.num_landmarks,
                                   config.num_threads, data.idf);
  data.shard_total = static_cast<uint32_t>(data.users.size());
  StatusOr<CandidateIndex> index = FromData(std::move(data));
  if (index.ok()) index->set_simd_mode(config.simd);
  return index;
}

StatusOr<CandidateIndex> CandidateIndex::FromData(CandidateIndexData data) {
  for (const IndexedUserFeatures& f : data.users) {
    if (!std::is_sorted(f.attributes.begin(), f.attributes.end(),
                        [](const auto& a, const auto& b) {
                          return a.first < b.first;
                        }))
      return Status::InvalidArgument(
          "CandidateIndex: attribute list not sorted by id");
    if (f.degree < 0.0)
      return Status::InvalidArgument("CandidateIndex: negative degree");
  }
  if (!std::is_sorted(data.idf.table.begin(), data.idf.table.end()))
    return Status::InvalidArgument("CandidateIndex: idf table not sorted");
  // Hand-built unsharded data may leave shard_total at its zero default;
  // an unsharded index's universe is its own user list.
  if (data.shard_count == 1 && data.shard_begin == 0 && data.shard_total == 0)
    data.shard_total = static_cast<uint32_t>(data.users.size());
  if (data.shard_count == 0 || data.shard_index >= data.shard_count)
    return Status::InvalidArgument("CandidateIndex: bad shard identity");
  if (static_cast<uint64_t>(data.shard_begin) + data.users.size() >
      data.shard_total)
    return Status::InvalidArgument(
        "CandidateIndex: shard range exceeds universe size");
  CandidateIndex index(std::move(data));
  index.BuildDerived();
  return index;
}

void CandidateIndex::BuildDerived() {
  std::vector<UserFeatureView> views;
  views.reserve(data_.users.size());
  for (const IndexedUserFeatures& f : data_.users) views.push_back(ViewOf(f));
  store_ = FeatureStore::Build(views);
}

std::vector<IndexedUserFeatures> CandidateIndex::ComputeQueryFeatures(
    const UdaGraph& anonymized, int num_threads) const {
  // The persisted flag decides, not the table: with IDF off, no stored
  // default_idf may scale the query side.
  return ComputeUserFeatures(
      anonymized, data_.num_landmarks, num_threads,
      data_.idf_weight_attributes ? data_.idf : IdfTable{});
}

double CandidateIndex::ExactScore(const IndexedUserFeatures& query,
                                  NodeId v) const {
  return CombinedStructuralScore(similarity_config(), ViewOf(query),
                                 ViewOf(data_.users[static_cast<size_t>(v)]));
}

void CandidateIndex::ExactRow(const IndexedUserFeatures& query,
                              std::vector<double>* row) const {
  row->resize(data_.users.size());
  ExactRowTo(query, row->data());
}

void CandidateIndex::ExactRowTo(const IndexedUserFeatures& query,
                                double* out) const {
  const SimilarityConfig config = similarity_config();
  const ScoreQuery q = store_.MakeQuery(ViewOf(query));
  store_.ScoreRow(config, q, out);
}

std::vector<ScoredUser> CandidateIndex::TopKScoredForQuery(
    const IndexedUserFeatures& query, int k) const {
  const size_t n2 = data_.users.size();
  if (k < 1 || n2 == 0) return {};
  static thread_local std::vector<double> row;
  row.resize(n2);
  ExactRowTo(query, row.data());
  std::vector<ScoredUser> top = SelectTopKScored(row.data(), n2, k);

  obs::IndexMetrics& metrics = obs::GetIndexMetrics();
  metrics.topk_queries->Increment();
  metrics.exact_evals->Increment(n2);
  metrics.dense_scans->Increment();
  return top;
}

}  // namespace dehealth
