#include "shard/shard_index.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/top_k.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/indexed_source.h"
#include "index/pipeline.h"
#include "obs/standard_metrics.h"
#include "shard/partition.h"
#include "test_util/scratch_path.h"

namespace dehealth {
namespace {

SimilarityConfig SimConfig() {
  SimilarityConfig config;
  config.idf_weight_attributes = true;
  return config;
}

/// The N slice indexes of a router fleet, each with the query features its
/// own backend would compute — what N `dehealth_serve --shard-index i
/// --shard-count N` processes hold between them.
struct Fleet {
  std::vector<CandidateIndex> slices;
  std::vector<std::vector<IndexedUserFeatures>> queries;  // [slice][user]
};

/// One closed-world scenario shared by every golden-equivalence test; the
/// single-index source is THE reference every slice layout must match
/// bitwise. The suite keeps its historical name so test ids stay stable
/// across versions.
class ShardedSourceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto forum = GenerateForum(WebMdLikeConfig(40, 23));
    ASSERT_TRUE(forum.ok());
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 11);
    ASSERT_TRUE(scenario.ok());
    anon_ = new UdaGraph(BuildUdaGraph(scenario->anonymized));
    aux_ = new UdaGraph(BuildUdaGraph(scenario->auxiliary));
    auto index = CandidateIndex::Build(*aux_, SimConfig());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    full_ = new CandidateIndex(std::move(index).value());
    reference_ = new IndexedCandidateSource(*anon_, *full_);
  }

  static Fleet MakeFleet(int shard_count, int num_threads = 0) {
    Fleet fleet;
    for (int i = 0; i < shard_count; ++i) {
      auto slice = LoadOrBuildShardIndex("", *aux_, SimConfig(), i,
                                         shard_count);
      EXPECT_TRUE(slice.ok()) << slice.status().ToString();
      if (!slice.ok()) return Fleet{};
      fleet.queries.push_back(
          slice->ComputeQueryFeatures(*anon_, num_threads));
      fleet.slices.push_back(std::move(slice).value());
    }
    return fleet;
  }

  /// The router's merge, in process: every slice's scored Top-K,
  /// re-anchored at its shard_begin, through MergeScoredTopK.
  static CandidateSets MergedTopK(const Fleet& fleet,
                                  const std::vector<int>& users, int k,
                                  int num_threads) {
    CandidateSets result(users.size());
    ParallelFor(
        0, static_cast<int64_t>(users.size()),
        [&](int64_t i) {
          const size_t u = static_cast<size_t>(users[static_cast<size_t>(i)]);
          std::vector<std::vector<ScoredUser>> per_shard;
          for (size_t s = 0; s < fleet.slices.size(); ++s) {
            per_shard.push_back(fleet.slices[s].TopKScoredForQuery(
                fleet.queries[s][u], k));
            const int begin =
                static_cast<int>(fleet.slices[s].data().shard_begin);
            for (ScoredUser& c : per_shard.back()) c.user += begin;
          }
          for (const ScoredUser& c : MergeScoredTopK(per_shard, k))
            result[static_cast<size_t>(i)].push_back(c.user);
        },
        num_threads);
    return result;
  }

  static std::vector<int> AllUsers() {
    std::vector<int> users(static_cast<size_t>(anon_->num_users()));
    for (size_t u = 0; u < users.size(); ++u) users[u] = static_cast<int>(u);
    return users;
  }

  static UdaGraph* anon_;
  static UdaGraph* aux_;
  static CandidateIndex* full_;
  static IndexedCandidateSource* reference_;
};

UdaGraph* ShardedSourceTest::anon_ = nullptr;
UdaGraph* ShardedSourceTest::aux_ = nullptr;
CandidateIndex* ShardedSourceTest::full_ = nullptr;
IndexedCandidateSource* ShardedSourceTest::reference_ = nullptr;

TEST_F(ShardedSourceTest, ScoreAndRowMatchSingleIndexForEveryShardCount) {
  for (int n : {1, 2, 3, 8}) {
    const Fleet fleet = MakeFleet(n);
    ASSERT_EQ(fleet.slices.size(), static_cast<size_t>(n));
    std::vector<double> row(static_cast<size_t>(reference_->num_auxiliary()));
    std::vector<double> want;
    for (int u = 0; u < reference_->num_anonymized(); ++u) {
      // Each slice's row kernel fills its own contiguous segment of the
      // global row, exactly where its shard_begin puts it.
      for (size_t s = 0; s < fleet.slices.size(); ++s) {
        const CandidateIndex& slice = fleet.slices[s];
        const uint32_t begin = slice.data().shard_begin;
        if (slice.num_auxiliary() > 0)
          slice.ExactRowTo(fleet.queries[s][static_cast<size_t>(u)],
                           row.data() + begin);
        for (int local = 0; local < slice.num_auxiliary(); local += 7)
          ASSERT_EQ(slice.ExactScore(fleet.queries[s][static_cast<size_t>(u)],
                                     local),
                    reference_->Score(u, static_cast<int>(begin) + local));
      }
      // Bitwise, not approximate: the slice kernel IS the full kernel on a
      // sub-range.
      ASSERT_EQ(row, reference_->Row(u, &want)) << "n=" << n << " u=" << u;
    }
  }
}

TEST_F(ShardedSourceTest, TopKBitwiseIdenticalAcrossShardAndThreadCounts) {
  auto golden = reference_->TopK(5, 1);
  ASSERT_TRUE(golden.ok());
  for (int n : {1, 2, 3, 8}) {
    for (int threads : {1, 2, 0}) {
      const Fleet fleet = MakeFleet(n, threads);
      ASSERT_EQ(fleet.slices.size(), static_cast<size_t>(n));
      EXPECT_EQ(MergedTopK(fleet, AllUsers(), 5, threads), *golden)
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST_F(ShardedSourceTest, TopKForUsersMatchesSingleIndex) {
  const std::vector<int> users = {0, 3, 9, 14, 14, 1};
  auto golden = reference_->TopKForUsers(users, 4, 1);
  ASSERT_TRUE(golden.ok());
  for (int n : {1, 2, 3, 8}) {
    const Fleet fleet = MakeFleet(n);
    ASSERT_EQ(fleet.slices.size(), static_cast<size_t>(n));
    EXPECT_EQ(MergedTopK(fleet, users, 4, 2), *golden) << "n=" << n;
  }
}

TEST_F(ShardedSourceTest, RejectsBadArguments) {
  EXPECT_FALSE(reference_->TopK(0, 1).ok());
  EXPECT_FALSE(reference_->TopKForUsers({0}, 0, 1).ok());
  EXPECT_FALSE(reference_->TopKForUsers({-1}, 3, 1).ok());
  EXPECT_FALSE(
      reference_->TopKForUsers({reference_->num_anonymized()}, 3, 1).ok());
}

TEST_F(ShardedSourceTest, SliceIndexDataKeepsGlobalState) {
  const std::vector<ShardRange> ranges =
      ComputeShardRanges(full_->num_auxiliary(), 3);
  for (int i = 0; i < 3; ++i) {
    const CandidateIndexData slice =
        SliceIndexData(full_->data(), ranges[static_cast<size_t>(i)], i, 3);
    EXPECT_EQ(slice.shard_index, static_cast<uint32_t>(i));
    EXPECT_EQ(slice.shard_count, 3u);
    EXPECT_EQ(slice.shard_begin,
              static_cast<uint32_t>(ranges[static_cast<size_t>(i)].begin));
    EXPECT_EQ(slice.shard_total,
              static_cast<uint32_t>(full_->num_auxiliary()));
    EXPECT_EQ(slice.users.size(),
              static_cast<size_t>(ranges[static_cast<size_t>(i)].size()));
    // The universe fingerprint and GLOBAL idf table travel verbatim —
    // that is what makes per-shard scores bitwise-equal to the full run.
    EXPECT_EQ(slice.auxiliary_fingerprint,
              full_->data().auxiliary_fingerprint);
    EXPECT_EQ(slice.idf.table, full_->data().idf.table);
  }
}

TEST_F(ShardedSourceTest, LoadOrBuildShardIndexMatchesSlicing) {
  auto shard = LoadOrBuildShardIndex("", *aux_, SimConfig(), 1, 3);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  const std::vector<ShardRange> ranges =
      ComputeShardRanges(full_->num_auxiliary(), 3);
  EXPECT_EQ(shard->num_auxiliary(), ranges[1].size());
  const std::vector<IndexedUserFeatures> queries =
      shard->ComputeQueryFeatures(*anon_);
  for (int u = 0; u < 3; ++u)
    for (int local = 0; local < shard->num_auxiliary(); ++local)
      ASSERT_EQ(shard->ExactScore(queries[static_cast<size_t>(u)], local),
                reference_->Score(u, ranges[1].begin + local));
  EXPECT_FALSE(LoadOrBuildShardIndex("", *aux_, SimConfig(), 3, 3).ok());
  EXPECT_FALSE(LoadOrBuildShardIndex("", *aux_, SimConfig(), -1, 3).ok());
}

TEST_F(ShardedSourceTest, ShardSnapshotsRoundTripAndQuarantine) {
  const ScratchDir dir;
  const std::string base = dir.File("aux.dhix");
  obs::IndexMetrics& metrics = obs::GetIndexMetrics();

  const uint64_t rebuilds_before = metrics.snapshot_rebuilds->Value();
  for (int i = 0; i < 3; ++i) {
    auto built = LoadOrBuildShardIndex(base, *aux_, SimConfig(), i, 3);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_TRUE(std::filesystem::exists(ShardSnapshotPath(base, i, 3)));
  }
  EXPECT_EQ(metrics.snapshot_rebuilds->Value() - rebuilds_before, 3u);

  // Warm start: every slice loads from its own snapshot.
  const uint64_t loads_before = metrics.snapshot_loads->Value();
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(LoadOrBuildShardIndex(base, *aux_, SimConfig(), i, 3).ok());
  EXPECT_EQ(metrics.snapshot_loads->Value() - loads_before, 3u);

  // Corrupt ONE slice file: that slice is quarantined, rebuilt and
  // re-saved, and still scores like the reference. The load never fails.
  const std::string victim = ShardSnapshotPath(base, 1, 3);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    f.write(garbage, sizeof(garbage));
  }
  const uint64_t quarantines_before =
      obs::GetShardMetrics().snapshot_quarantines->Value();
  auto recovered = LoadOrBuildShardIndex(base, *aux_, SimConfig(), 1, 3);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(victim + ".quarantined"));
  EXPECT_EQ(obs::GetShardMetrics().snapshot_quarantines->Value() -
                quarantines_before,
            1u);
  const std::vector<ShardRange> ranges =
      ComputeShardRanges(full_->num_auxiliary(), 3);
  const std::vector<IndexedUserFeatures> queries =
      recovered->ComputeQueryFeatures(*anon_);
  for (int u = 0; u < reference_->num_anonymized(); ++u)
    for (int local = 0; local < recovered->num_auxiliary(); ++local)
      ASSERT_EQ(recovered->ExactScore(queries[static_cast<size_t>(u)], local),
                reference_->Score(u, ranges[1].begin + local));

  // The rebuilt slice was written back: the next start loads it again.
  const uint64_t reloads_before = metrics.snapshot_loads->Value();
  ASSERT_TRUE(LoadOrBuildShardIndex(base, *aux_, SimConfig(), 1, 3).ok());
  EXPECT_EQ(metrics.snapshot_loads->Value() - reloads_before, 1u);
}

TEST_F(ShardedSourceTest, InvalidShardConfigsAreRejected) {
  DeHealthConfig filtered_slice;
  filtered_slice.top_k = 5;
  filtered_slice.shard_count = 2;
  filtered_slice.enable_filtering = true;  // needs global thresholds
  EXPECT_FALSE(BuildAttackScoreSource(*anon_, *aux_, filtered_slice).ok());
  DeHealthConfig bad_index;
  bad_index.top_k = 5;
  bad_index.shard_count = 2;
  bad_index.shard_index = 2;  // out of range
  EXPECT_FALSE(BuildAttackScoreSource(*anon_, *aux_, bad_index).ok());
}

}  // namespace
}  // namespace dehealth
