#ifndef DEHEALTH_SHARD_PARTITION_H_
#define DEHEALTH_SHARD_PARTITION_H_

#include <string>
#include <vector>

namespace dehealth {

/// One shard's contiguous auxiliary-id range [begin, end). The partition
/// invariant every sharded path relies on: ranges are disjoint, ordered,
/// and cover [0, total) exactly — so global id v lives in precisely one
/// shard, at local id v - begin (see DESIGN.md "Sharding").
struct ShardRange {
  int begin = 0;
  int end = 0;
  int size() const { return end - begin; }
};

/// Splits [0, total) into `shard_count` near-equal contiguous ranges: the
/// first total % shard_count shards get one extra user. Deterministic, so
/// every process (CLI, backends, router, bench) derives the same partition
/// from (total, shard_count) alone — no partition map is ever persisted or
/// exchanged. shard_count < 1 is treated as 1; shards beyond `total` come
/// back empty.
std::vector<ShardRange> ComputeShardRanges(int total, int shard_count);

/// Snapshot path of shard i of n derived from the unsharded snapshot path:
/// a trailing ".dhix" is stripped and ".shard-<i>-of-<n>.dhix" appended
/// (so "aux.dhix" → "aux.shard-0-of-3.dhix"). Empty `base` stays empty
/// (persistence off).
std::string ShardSnapshotPath(const std::string& base, int shard_index,
                              int shard_count);

}  // namespace dehealth

#endif  // DEHEALTH_SHARD_PARTITION_H_
