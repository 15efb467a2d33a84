#ifndef DEHEALTH_SHARD_SHARDED_SOURCE_H_
#define DEHEALTH_SHARD_SHARDED_SOURCE_H_

#include <vector>

#include "core/candidate_source.h"
#include "index/candidate_index.h"
#include "shard/partition.h"

namespace dehealth {

/// In-process scatter-gather CandidateSource over N per-shard candidate
/// indexes (BuildShardIndexes): every Top-K query fans out to all shards
/// and merges the per-shard heaps with MergeScoredTopK. Because each shard
/// slices the same full build (global idf table, universe fingerprint) and
/// runs the identical exact kernel, Score / Row / TopK answers are
/// bitwise-identical to the single-index path for every N and thread count
/// (see DESIGN.md "Sharding") — so `dehealth_cli attack --shards=N`, the
/// job runner and the filtering/refined phases consume it unchanged.
class ShardedCandidateSource final : public CandidateSource {
 public:
  /// `shards[i]` must be shard i of shards.size() of one universe, ranges
  /// partitioning [0, universe) in order — exactly what BuildShardIndexes
  /// returns. Construction computes the anonymized-side query features
  /// ONCE (all shards share the idf table and landmark count, so the
  /// features are shard-independent).
  ShardedCandidateSource(const UdaGraph& anonymized,
                         std::vector<CandidateIndex> shards,
                         int num_threads = 0);

  int num_anonymized() const override;
  int num_auxiliary() const override;
  double Score(NodeId u, NodeId v) const override;
  const std::vector<double>& Row(NodeId u,
                                 std::vector<double>* scratch) const override;
  StatusOr<CandidateSets> TopK(int k, int num_threads) const override;
  StatusOr<CandidateSets> TopKForUsers(const std::vector<int>& users, int k,
                                       int num_threads) const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const std::vector<ShardRange>& ranges() const { return ranges_; }

 private:
  /// The shard owning global auxiliary id v (ranges are contiguous and
  /// ordered, so this is one binary search).
  size_t ShardOf(NodeId v) const;
  std::vector<ScoredUser> MergedTopKForQuery(size_t query, int k) const;

  std::vector<CandidateIndex> shards_;
  std::vector<ShardRange> ranges_;
  std::vector<IndexedUserFeatures> queries_;
  int num_auxiliary_ = 0;
};

}  // namespace dehealth

#endif  // DEHEALTH_SHARD_SHARDED_SOURCE_H_
