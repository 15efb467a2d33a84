#include "stylo/user_profile.h"

#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dehealth {
namespace {

SparseVector MakeVector(std::initializer_list<std::pair<int, double>> init) {
  SparseVector v;
  for (const auto& [id, value] : init) v.Set(id, value);
  return v;
}

TEST(UserProfileTest, EmptyProfile) {
  UserProfile p;
  EXPECT_EQ(p.num_posts(), 0);
  EXPECT_FALSE(p.HasAttribute(1));
  EXPECT_EQ(p.AttributeWeight(1), 0);
  EXPECT_TRUE(p.MeanFeatures().empty());
}

TEST(UserProfileTest, AttributeWeightsCountPosts) {
  UserProfile p;
  p.AddPost(MakeVector({{1, 0.5}, {2, 1.0}}));
  p.AddPost(MakeVector({{1, 0.3}}));
  EXPECT_EQ(p.num_posts(), 2);
  EXPECT_TRUE(p.HasAttribute(1));
  EXPECT_EQ(p.AttributeWeight(1), 2);
  EXPECT_EQ(p.AttributeWeight(2), 1);
  EXPECT_EQ(p.AttributeWeight(3), 0);
}

TEST(UserProfileTest, MeanFeatures) {
  UserProfile p;
  p.AddPost(MakeVector({{1, 2.0}}));
  p.AddPost(MakeVector({{1, 4.0}, {2, 6.0}}));
  SparseVector mean = p.MeanFeatures();
  EXPECT_NEAR(mean.Get(1), 3.0, 1e-12);
  EXPECT_NEAR(mean.Get(2), 3.0, 1e-12);
}

TEST(UserProfileTest, SumFeatures) {
  UserProfile p;
  p.AddPost(MakeVector({{7, 1.0}}));
  p.AddPost(MakeVector({{7, 2.0}}));
  EXPECT_NEAR(p.SumFeatures().Get(7), 3.0, 1e-12);
}

// The attribute list is one id-sorted merge per post; it must hold exactly
// the per-id post counts an ordered map of counters gives.
TEST(UserProfileTest, AttributesEqualPerIdPostCounts) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    UserProfile profile;
    std::map<int, int> expected;
    const int posts = static_cast<int>(rng.NextBounded(10));
    for (int post = 0; post < posts; ++post) {
      SparseVector features;
      const int n = static_cast<int>(rng.NextBounded(15));
      for (int i = 0; i < n; ++i)
        features.Set(static_cast<int>(rng.NextBounded(40)),
                     rng.NextDouble(0.5, 2.0));
      for (const auto& [id, value] : features.entries()) ++expected[id];
      profile.AddPost(features);
    }
    ASSERT_EQ(profile.num_posts(), posts);
    const std::vector<std::pair<int, int>> counts(expected.begin(),
                                                  expected.end());
    EXPECT_EQ(profile.attributes(), counts) << "trial " << trial;
    for (int id = 0; id < 40; ++id) {
      const auto it = expected.find(id);
      EXPECT_EQ(profile.AttributeWeight(id),
                it == expected.end() ? 0 : it->second);
      EXPECT_EQ(profile.HasAttribute(id), it != expected.end());
    }
  }
}

TEST(AttributeSimilarityTest, EmptyProfilesScoreZero) {
  UserProfile a, b;
  EXPECT_EQ(AttributeSimilarity(a, b), 0.0);
}

TEST(AttributeSimilarityTest, IdenticalProfilesScoreTwo) {
  UserProfile a, b;
  a.AddPost(MakeVector({{1, 1.0}, {2, 1.0}}));
  b.AddPost(MakeVector({{1, 1.0}, {2, 1.0}}));
  // Jaccard 1 + weighted Jaccard 1.
  EXPECT_NEAR(AttributeSimilarity(a, b), 2.0, 1e-12);
}

TEST(AttributeSimilarityTest, DisjointProfilesScoreZero) {
  UserProfile a, b;
  a.AddPost(MakeVector({{1, 1.0}}));
  b.AddPost(MakeVector({{2, 1.0}}));
  EXPECT_EQ(AttributeSimilarity(a, b), 0.0);
}

TEST(AttributeSimilarityTest, WeightedComponentUsesMinMax) {
  UserProfile a, b;
  // a has attribute 1 in 3 posts; b in 1 post.
  a.AddPost(MakeVector({{1, 1.0}}));
  a.AddPost(MakeVector({{1, 1.0}}));
  a.AddPost(MakeVector({{1, 1.0}}));
  b.AddPost(MakeVector({{1, 1.0}}));
  // set Jaccard = 1; weighted = min(3,1)/max(3,1) = 1/3.
  EXPECT_NEAR(AttributeSimilarity(a, b), 1.0 + 1.0 / 3.0, 1e-12);
}

TEST(AttributeSimilarityTest, Symmetric) {
  UserProfile a, b;
  a.AddPost(MakeVector({{1, 1.0}, {3, 1.0}}));
  b.AddPost(MakeVector({{1, 1.0}, {2, 1.0}}));
  b.AddPost(MakeVector({{2, 1.0}}));
  EXPECT_NEAR(AttributeSimilarity(a, b), AttributeSimilarity(b, a), 1e-12);
}

TEST(AttributeSimilarityTest, PartialOverlap) {
  UserProfile a, b;
  a.AddPost(MakeVector({{1, 1.0}, {2, 1.0}}));
  b.AddPost(MakeVector({{2, 1.0}, {3, 1.0}}));
  // set: |{2}| / |{1,2,3}| = 1/3; weights: min 1 / (1+1+1) = 1/3.
  EXPECT_NEAR(AttributeSimilarity(a, b), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace dehealth
