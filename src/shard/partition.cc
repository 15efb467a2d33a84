#include "shard/partition.h"

namespace dehealth {

std::vector<ShardRange> ComputeShardRanges(int total, int shard_count) {
  if (shard_count < 1) shard_count = 1;
  if (total < 0) total = 0;
  std::vector<ShardRange> ranges(static_cast<size_t>(shard_count));
  const int base = total / shard_count;
  const int extra = total % shard_count;
  int begin = 0;
  for (int i = 0; i < shard_count; ++i) {
    const int size = base + (i < extra ? 1 : 0);
    ranges[static_cast<size_t>(i)] = ShardRange{begin, begin + size};
    begin += size;
  }
  return ranges;
}

std::string ShardSnapshotPath(const std::string& base, int shard_index,
                              int shard_count) {
  if (base.empty()) return base;
  std::string stem = base;
  constexpr const char kExt[] = ".dhix";
  constexpr size_t kExtLen = sizeof(kExt) - 1;
  if (stem.size() >= kExtLen &&
      stem.compare(stem.size() - kExtLen, kExtLen, kExt) == 0)
    stem.resize(stem.size() - kExtLen);
  return stem + ".shard-" + std::to_string(shard_index) + "-of-" +
         std::to_string(shard_count) + ".dhix";
}

}  // namespace dehealth
