#include "shard/sharded_source.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/parallel.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

ShardedCandidateSource::ShardedCandidateSource(
    const UdaGraph& anonymized, std::vector<CandidateIndex> shards,
    int num_threads)
    : shards_(std::move(shards)) {
  assert(!shards_.empty() && "ShardedCandidateSource needs >= 1 shard");
  ranges_.reserve(shards_.size());
  for (const CandidateIndex& shard : shards_) {
    const CandidateIndexData& data = shard.data();
    const int begin = static_cast<int>(data.shard_begin);
    ranges_.push_back(ShardRange{begin, begin + shard.num_auxiliary()});
  }
  num_auxiliary_ = ranges_.back().end;
  // Query features depend only on the anonymized graph, the landmark count
  // and the (global, shared) idf table — any shard computes the same
  // vectors, so compute them once on shard 0.
  queries_ = shards_.front().ComputeQueryFeatures(anonymized, num_threads);
}

int ShardedCandidateSource::num_anonymized() const {
  return static_cast<int>(queries_.size());
}

int ShardedCandidateSource::num_auxiliary() const { return num_auxiliary_; }

size_t ShardedCandidateSource::ShardOf(NodeId v) const {
  // First range whose end exceeds v; empty shards (end == begin) can never
  // win because v < end implies the range is non-empty at v's position.
  const auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), v,
      [](NodeId value, const ShardRange& r) { return value < r.end; });
  assert(it != ranges_.end());
  return static_cast<size_t>(it - ranges_.begin());
}

double ShardedCandidateSource::Score(NodeId u, NodeId v) const {
  const size_t s = ShardOf(v);
  return shards_[s].ExactScore(queries_[static_cast<size_t>(u)],
                               v - ranges_[s].begin);
}

const std::vector<double>& ShardedCandidateSource::Row(
    NodeId u, std::vector<double>* scratch) const {
  scratch->resize(static_cast<size_t>(num_auxiliary_));
  // Each shard's batched row kernel fills its own contiguous segment of
  // the global row — same kernel, same per-slot values as the single-index
  // ExactRow, just written through N calls.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (ranges_[s].size() == 0) continue;
    shards_[s].ExactRowTo(queries_[static_cast<size_t>(u)],
                          scratch->data() + ranges_[s].begin);
  }
  return *scratch;
}

std::vector<ScoredUser> ShardedCandidateSource::MergedTopKForQuery(
    size_t query, int k) const {
  std::vector<std::vector<ScoredUser>> per_shard(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    per_shard[s] = shards_[s].TopKScoredForQuery(queries_[query], k);
    for (ScoredUser& c : per_shard[s]) c.user += ranges_[s].begin;
  }
  return MergeScoredTopK(per_shard, k);
}

StatusOr<CandidateSets> ShardedCandidateSource::TopK(int k,
                                                     int num_threads) const {
  if (k < 1)
    return Status::InvalidArgument(
        "ShardedCandidateSource::TopK: k must be >= 1");
  obs::Span span("shard", "sharded_top_k");
  span.SetArg("rows", static_cast<int64_t>(queries_.size()));
  span.SetArg("shards", static_cast<int64_t>(shards_.size()));
  obs::GetShardMetrics().scatter_rpcs->Increment(queries_.size() *
                                                 shards_.size());
  CandidateSets result(queries_.size());
  // Row-parallel like every other source: each task owns one output slot,
  // scattering to all shards serially inside the task (a nested
  // ParallelFor would serialize anyway), so candidate sets are identical
  // for any thread count.
  ParallelFor(
      0, static_cast<int64_t>(queries_.size()),
      [&](int64_t u) {
        const std::vector<ScoredUser> merged =
            MergedTopKForQuery(static_cast<size_t>(u), k);
        std::vector<int>& out = result[static_cast<size_t>(u)];
        out.reserve(merged.size());
        for (const ScoredUser& c : merged) out.push_back(c.user);
      },
      num_threads);
  return result;
}

StatusOr<CandidateSets> ShardedCandidateSource::TopKForUsers(
    const std::vector<int>& users, int k, int num_threads) const {
  if (k < 1)
    return Status::InvalidArgument(
        "ShardedCandidateSource::TopKForUsers: k must be >= 1");
  const int n1 = num_anonymized();
  for (int u : users)
    if (u < 0 || u >= n1)
      return Status::InvalidArgument(
          "ShardedCandidateSource::TopKForUsers: user id " +
          std::to_string(u) + " out of range [0, " + std::to_string(n1) +
          ")");
  obs::GetShardMetrics().scatter_rpcs->Increment(users.size() *
                                                 shards_.size());
  CandidateSets result(users.size());
  ParallelFor(
      0, static_cast<int64_t>(users.size()),
      [&](int64_t i) {
        const std::vector<ScoredUser> merged = MergedTopKForQuery(
            static_cast<size_t>(users[static_cast<size_t>(i)]), k);
        std::vector<int>& out = result[static_cast<size_t>(i)];
        out.reserve(merged.size());
        for (const ScoredUser& c : merged) out.push_back(c.user);
      },
      num_threads);
  return result;
}

}  // namespace dehealth
