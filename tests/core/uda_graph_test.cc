#include "core/uda_graph.h"

#include <gtest/gtest.h>

#include "stylo/extractor.h"
#include "stylo/feature_layout.h"

namespace dehealth {
namespace {

ForumDataset TinyDataset() {
  ForumDataset d;
  d.num_users = 3;
  d.num_threads = 2;
  d.posts = {
      {0, 0, "I have a headache and it hurts."},
      {1, 0, "Try drinking more water!"},
      {0, 1, "Still hurts today."},
      {2, 1, "See a doctor please."},
  };
  return d;
}

TEST(BuildUdaGraphTest, GraphStructureMatchesThreads) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  EXPECT_EQ(uda.num_users(), 3);
  EXPECT_EQ(uda.graph.EdgeWeight(0, 1), 1.0);
  EXPECT_EQ(uda.graph.EdgeWeight(0, 2), 1.0);
  EXPECT_EQ(uda.graph.EdgeWeight(1, 2), 0.0);
}

TEST(BuildUdaGraphTest, ProfilesCountPosts) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  EXPECT_EQ(uda.profiles[0].num_posts(), 2);
  EXPECT_EQ(uda.profiles[1].num_posts(), 1);
  EXPECT_EQ(uda.post_features[0].size(), 2u);
  EXPECT_EQ(uda.post_features[2].size(), 1u);
}

TEST(BuildUdaGraphTest, AttributesDerivedFromFeatures) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  // Every user writes characters, so everyone has the num_chars attribute.
  for (int u = 0; u < 3; ++u)
    EXPECT_TRUE(uda.profiles[static_cast<size_t>(u)].HasAttribute(
        feature_layout::kNumChars));
  // User 0 wrote two posts -> weight 2 on universally-present attributes.
  EXPECT_EQ(uda.profiles[0].AttributeWeight(feature_layout::kNumChars), 2);
}

TEST(BuildUdaGraphTest, PostFeaturesNonEmpty) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  for (const auto& user_posts : uda.post_features)
    for (const auto& f : user_posts) EXPECT_FALSE(f.empty());
}

TEST(BuildUdaGraphTest, EmptyDataset) {
  ForumDataset d;
  d.num_users = 2;
  UdaGraph uda = BuildUdaGraph(d);
  EXPECT_EQ(uda.num_users(), 2);
  EXPECT_EQ(uda.profiles[0].num_posts(), 0);
}

// The fold keeps post order per user whatever the thread count: a user
// with no posts, an empty post and two users' interleaved posts all land
// exactly where a one-post-at-a-time serial fold puts them.
TEST(BuildUdaGraphTest, ParallelFoldMatchesSerialPostOrder) {
  ForumDataset d;
  d.num_users = 4;  // user 3 never posts
  d.num_threads = 3;
  d.posts = {
      {0, 0, "First post, fairly long, with words and a question?"},
      {1, 0, "Reply one."},
      {0, 1, ""},
      {1, 1, "Reply TWO, shouting!"},
      {0, 2, "third from zero"},
      {2, 2, "Only post of user two."},
      {1, 2, "reply three... the end"},
  };
  std::vector<std::vector<SparseVector>> expected_posts(4);
  std::vector<UserProfile> expected_profiles(4);
  const FeatureExtractor extractor;
  for (const Post& post : d.posts) {
    const SparseVector features = extractor.ExtractPost(post.text);
    expected_posts[static_cast<size_t>(post.user_id)].push_back(features);
    expected_profiles[static_cast<size_t>(post.user_id)].AddPost(features);
  }
  EXPECT_TRUE(expected_posts[0][1].empty());  // the empty post
  for (int threads : {1, 2, 4, 0}) {
    SCOPED_TRACE("num_threads = " + std::to_string(threads));
    const UdaGraph uda = BuildUdaGraph(d, threads);
    ASSERT_EQ(uda.num_users(), 4);
    EXPECT_EQ(uda.post_features, expected_posts);
    for (size_t u = 0; u < 4; ++u) {
      EXPECT_EQ(uda.profiles[u].num_posts(),
                expected_profiles[u].num_posts());
      EXPECT_EQ(uda.profiles[u].attributes(),
                expected_profiles[u].attributes());
      EXPECT_EQ(uda.profiles[u].SumFeatures(),
                expected_profiles[u].SumFeatures());
    }
    EXPECT_EQ(uda.profiles[3].num_posts(), 0);
    EXPECT_TRUE(uda.post_features[3].empty());
    EXPECT_EQ(uda.graph.EdgeWeight(0, 1), 3.0);
    EXPECT_EQ(uda.graph.Degree(3), 0);
  }
}

}  // namespace
}  // namespace dehealth
