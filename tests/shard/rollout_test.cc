// RunRollout semantics: a replicated --ingest fleet is pushed segments and
// sealed replica by replica, every group (and the whole fleet) converges
// on one (epoch_seq, universe_fingerprint), and every divergence or
// mis-grouping fails closed before or at the offending backend.

#include "shard/rollout.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/uda_graph.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "ingest/epoch.h"
#include "ingest/segment.h"
#include "ingest/state.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "shard/router.h"
#include "test_util/scratch_path.h"

namespace dehealth {
namespace {

/// One --ingest slice backend: an EpochHandler over shard g of n booted on
/// the base log, with a QueryServer in front.
struct IngestBackend {
  std::unique_ptr<ingest::EpochHandler> handler;
  std::unique_ptr<QueryServer> server;

  int port() const { return server->port(); }
  void Stop() {
    server->Shutdown();
    server->Wait();
  }
};

class RolloutTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto forum = GenerateForum(WebMdLikeConfig(30, 31));
    ASSERT_TRUE(forum.ok());
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 17);
    ASSERT_TRUE(scenario.ok());
    anonymized_ = new ForumDataset(std::move(scenario->anonymized));
    full_ = new ForumDataset(std::move(scenario->auxiliary));
    base_ = new ForumDataset();
    base_->num_users = full_->num_users;
    base_->num_threads = full_->num_threads;
    const size_t cut = full_->posts.size() / 2;
    base_->posts.assign(full_->posts.begin(),
                        full_->posts.begin() + static_cast<long>(cut));
    tail_ = new std::vector<Post>(
        full_->posts.begin() + static_cast<long>(cut), full_->posts.end());
  }

  static DeHealthConfig SliceConfig(int shard_index, int shard_count) {
    DeHealthConfig config;
    config.top_k = 3;
    config.num_threads = 2;
    config.shard_index = shard_index;
    config.shard_count = shard_count;
    return config;
  }

  static StatusOr<IngestBackend> StartIngestSlice(int shard_index,
                                                  int shard_count) {
    IngestBackend backend;
    auto handler = ingest::EpochHandler::Create(
        BuildUdaGraph(*anonymized_), *base_,
        SliceConfig(shard_index, shard_count));
    if (!handler.ok()) return handler.status();
    backend.handler = std::move(handler).value();
    backend.server =
        std::make_unique<QueryServer>(*backend.handler, ServerConfig());
    DEHEALTH_RETURN_IF_ERROR(backend.server->Start());
    return backend;
  }

  static StatusOr<std::vector<std::vector<IngestBackend>>> StartFleet(
      int n, int r) {
    std::vector<std::vector<IngestBackend>> groups;
    for (int g = 0; g < n; ++g) {
      std::vector<IngestBackend> replicas;
      for (int i = 0; i < r; ++i) {
        auto backend = StartIngestSlice(g, n);
        if (!backend.ok()) return backend.status();
        replicas.push_back(std::move(backend).value());
      }
      groups.push_back(std::move(replicas));
    }
    return groups;
  }

  static std::vector<std::vector<BackendAddress>> GroupAddresses(
      const std::vector<std::vector<IngestBackend>>& groups) {
    std::vector<std::vector<BackendAddress>> addresses;
    for (const auto& group : groups) {
      std::vector<BackendAddress> replicas;
      for (const IngestBackend& b : group)
        replicas.push_back(BackendAddress{"127.0.0.1", b.port()});
      addresses.push_back(std::move(replicas));
    }
    return addresses;
  }

  static void StopFleet(std::vector<std::vector<IngestBackend>>& groups) {
    for (auto& group : groups)
      for (IngestBackend& b : group) b.Stop();
  }

  /// A universal delta segment advancing base by tail, written to `path`.
  static void CutTailSegment(const std::string& path) {
    ingest::IngestState state = ingest::IngestState::FromDataset(*base_);
    auto segment = ingest::CutSegment(&state, *tail_);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    ASSERT_TRUE(ingest::WriteSegmentVerified(*segment, path).ok());
  }

  static ForumDataset* anonymized_;
  static ForumDataset* base_;
  static ForumDataset* full_;
  static std::vector<Post>* tail_;
};

ForumDataset* RolloutTest::anonymized_ = nullptr;
ForumDataset* RolloutTest::base_ = nullptr;
ForumDataset* RolloutTest::full_ = nullptr;
std::vector<Post>* RolloutTest::tail_ = nullptr;

TEST_F(RolloutTest, RollingSealConvergesTheWholeFleet) {
  ScratchFile segment_file("rollout_converge.dhsg");
  CutTailSegment(segment_file.path());
  auto fleet = StartFleet(2, 2);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  RolloutOptions options;
  options.segments = {segment_file.path()};
  auto report = RunRollout(GroupAddresses(*fleet), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->groups.size(), 2u);
  EXPECT_EQ(report->segments_loaded, 4);  // 1 segment x 4 replicas
  EXPECT_EQ(report->seals, 4);
  for (const RolloutGroupReport& group : report->groups) {
    EXPECT_EQ(group.replicas, 2);
    EXPECT_EQ(group.epoch_seq, 1u);
    EXPECT_EQ(group.universe_fingerprint,
              report->groups[0].universe_fingerprint);
  }
  for (const auto& group : *fleet)
    for (const IngestBackend& b : group) {
      EXPECT_EQ(b.handler->epoch_seq(), 1u);
      EXPECT_EQ(b.handler->staged_segments(), 0u);
    }

  // The converged fleet passes the router's STRICT connect (no epoch
  // skew), and its merged answers match one unsharded server on the FULL
  // log byte for byte — the rollout really advanced everyone to the same
  // universe.
  auto router =
      RouterHandler::Connect(GroupAddresses(*fleet), RouterOptions());
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ((*router)->epoch_seq(), 1u);
  auto full_engine = QueryEngine::Create(BuildUdaGraph(*anonymized_),
                                         BuildUdaGraph(*full_),
                                         SliceConfig(0, 1));
  ASSERT_TRUE(full_engine.ok());
  std::vector<int> users(
      static_cast<size_t>((*full_engine)->num_anonymized()));
  for (size_t i = 0; i < users.size(); ++i) users[i] = static_cast<int>(i);
  auto golden = (*full_engine)->TopKScored(users, 3);
  ASSERT_TRUE(golden.ok());
  auto merged = (*router)->TopKScored(users, 3);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->partial);
  ASSERT_EQ(merged->candidates.size(), golden->candidates.size());
  for (size_t u = 0; u < users.size(); ++u) {
    const auto& got = merged->candidates[u];
    const auto& want = golden->candidates[u];
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].user, want[i].user);
      EXPECT_EQ(got[i].score, want[i].score);  // bitwise
    }
  }
  StopFleet(*fleet);
}

TEST_F(RolloutTest, StageOnlyThenSealOnlyRollout) {
  ScratchFile segment_file("rollout_no_seal.dhsg");
  CutTailSegment(segment_file.path());
  auto fleet = StartFleet(1, 2);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // Pass 1 (--no-seal): everything staged, nothing sealed, answers
  // untouched.
  RolloutOptions stage_only;
  stage_only.segments = {segment_file.path()};
  stage_only.seal = false;
  auto staged = RunRollout(GroupAddresses(*fleet), stage_only);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(staged->seals, 0);
  EXPECT_EQ(staged->segments_loaded, 2);
  for (const IngestBackend& b : (*fleet)[0]) {
    EXPECT_EQ(b.handler->epoch_seq(), 0u);
    EXPECT_EQ(b.handler->staged_segments(), 1u);
  }

  // Pass 2 (seal-only, no segments): the swap.
  RolloutOptions seal_only;
  auto sealed = RunRollout(GroupAddresses(*fleet), seal_only);
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  EXPECT_EQ(sealed->seals, 2);
  EXPECT_EQ(sealed->segments_loaded, 0);
  ASSERT_EQ(sealed->groups.size(), 1u);
  EXPECT_EQ(sealed->groups[0].epoch_seq, 1u);
  for (const IngestBackend& b : (*fleet)[0])
    EXPECT_EQ(b.handler->epoch_seq(), 1u);
  StopFleet(*fleet);
}

TEST_F(RolloutTest, DivergedReplicaFailsTheRolloutClosed) {
  ScratchFile segment_file("rollout_diverged.dhsg");
  CutTailSegment(segment_file.path());
  auto fleet = StartFleet(1, 2);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // Replica 1 already applied + sealed the segment out of band: the
  // rollout's push hits its parent-fingerprint check and fails closed,
  // naming the backend, without --allow-epoch-skew ever entering into it.
  ASSERT_TRUE(
      (*fleet)[0][1].handler->LoadSegment(segment_file.path()).ok());
  ASSERT_TRUE((*fleet)[0][1].handler->SealEpoch().ok());

  RolloutOptions options;
  options.segments = {segment_file.path()};
  auto report = RunRollout(GroupAddresses(*fleet), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  // Replica 0 DID seal before the failure (rollouts are replica-by-
  // replica); recovery is the operator's, as documented.
  EXPECT_EQ((*fleet)[0][0].handler->epoch_seq(), 1u);
  StopFleet(*fleet);
}

TEST_F(RolloutTest, MisGroupedFleetRefusedBeforeMutation) {
  ScratchFile segment_file("rollout_mis_grouped.dhsg");
  CutTailSegment(segment_file.path());
  // Two different slices "grouped" as replicas of one shard.
  auto a = StartIngestSlice(0, 2);
  auto b = StartIngestSlice(1, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<std::vector<BackendAddress>> mis_grouped = {
      {{"127.0.0.1", a->port()}, {"127.0.0.1", b->port()}}};

  RolloutOptions options;
  options.segments = {segment_file.path()};
  auto report = RunRollout(mis_grouped, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  // The grouping check runs before any mutation of the OFFENDING replica:
  // backend b staged nothing and is still at epoch 0.
  EXPECT_EQ(b->handler->epoch_seq(), 0u);
  EXPECT_EQ(b->handler->staged_segments(), 0u);
  a->Stop();
  b->Stop();
}

TEST_F(RolloutTest, EmptyGroupsAreInvalid) {
  EXPECT_EQ(RunRollout({}, RolloutOptions()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunRollout({{}}, RolloutOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dehealth
