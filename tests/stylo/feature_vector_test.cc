#include "stylo/feature_vector.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dehealth {
namespace {

TEST(SparseVectorTest, SetAndGet) {
  SparseVector v;
  v.Set(5, 1.5);
  v.Set(2, -1.0);
  EXPECT_EQ(v.Get(5), 1.5);
  EXPECT_EQ(v.Get(2), -1.0);
  EXPECT_EQ(v.Get(99), 0.0);
  EXPECT_EQ(v.NumNonZero(), 2u);
}

TEST(SparseVectorTest, SetZeroRemovesEntry) {
  SparseVector v;
  v.Set(3, 2.0);
  v.Set(3, 0.0);
  EXPECT_EQ(v.NumNonZero(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, OverwriteValue) {
  SparseVector v;
  v.Set(3, 2.0);
  v.Set(3, 7.0);
  EXPECT_EQ(v.Get(3), 7.0);
  EXPECT_EQ(v.NumNonZero(), 1u);
}

TEST(SparseVectorTest, EntriesSortedById) {
  SparseVector v;
  v.Set(9, 1.0);
  v.Set(1, 1.0);
  v.Set(5, 1.0);
  const auto& e = v.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].first, 1);
  EXPECT_EQ(e[1].first, 5);
  EXPECT_EQ(e[2].first, 9);
}

TEST(SparseVectorTest, AddAccumulatesAndCancels) {
  SparseVector v;
  v.Add(4, 2.0);
  v.Add(4, 3.0);
  EXPECT_EQ(v.Get(4), 5.0);
  v.Add(4, -5.0);
  EXPECT_EQ(v.NumNonZero(), 0u);
  v.Add(7, 0.0);  // no-op
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, DotProductSparse) {
  SparseVector a, b;
  a.Set(1, 2.0);
  a.Set(3, 4.0);
  b.Set(3, 5.0);
  b.Set(7, 6.0);
  EXPECT_EQ(a.Dot(b), 20.0);
  EXPECT_EQ(b.Dot(a), 20.0);
}

TEST(SparseVectorTest, NormAndCosine) {
  SparseVector a, b;
  a.Set(0, 3.0);
  a.Set(1, 4.0);
  EXPECT_NEAR(a.Norm(), 5.0, 1e-12);
  b.Set(0, 3.0);
  b.Set(1, 4.0);
  EXPECT_NEAR(a.Cosine(b), 1.0, 1e-12);
  SparseVector zero;
  EXPECT_EQ(a.Cosine(zero), 0.0);
}

TEST(SparseVectorTest, CosineOrthogonal) {
  SparseVector a, b;
  a.Set(0, 1.0);
  b.Set(1, 1.0);
  EXPECT_EQ(a.Cosine(b), 0.0);
}

TEST(SparseVectorTest, ScaleAndScaleByZero) {
  SparseVector v;
  v.Set(2, 3.0);
  v.Scale(2.0);
  EXPECT_EQ(v.Get(2), 6.0);
  v.Scale(0.0);
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, AddVectorMerges) {
  SparseVector a, b;
  a.Set(1, 1.0);
  a.Set(2, 2.0);
  b.Set(2, 3.0);
  b.Set(4, 4.0);
  a.AddVector(b);
  EXPECT_EQ(a.Get(1), 1.0);
  EXPECT_EQ(a.Get(2), 5.0);
  EXPECT_EQ(a.Get(4), 4.0);
}

// AddVector is one merge walk; it must be bitwise what adding each entry
// with Add gives — the same single addition per id, the same cancellation
// of sums that reach 0 — for overlapping, disjoint and cancelling inputs.
TEST(SparseVectorTest, AddVectorEqualsEntryWiseAdd) {
  const double values[] = {-2.0, -1.0, -0.5, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0};
  Rng rng(41);
  const auto random_vector = [&](int dims) {
    SparseVector v;
    const int n = static_cast<int>(rng.NextBounded(12));
    for (int i = 0; i < n; ++i)
      v.Set(static_cast<int>(rng.NextBounded(static_cast<uint64_t>(dims))),
            values[rng.NextBounded(9)]);
    return v;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const int dims = 1 + static_cast<int>(rng.NextBounded(24));
    SparseVector merged = random_vector(dims);
    SparseVector added = merged;
    for (int step = 0; step < 4; ++step) {
      const SparseVector other = random_vector(dims);
      merged.AddVector(other);
      for (const auto& [id, v] : other.entries()) added.Add(id, v);
      ASSERT_EQ(merged, added) << "trial " << trial << " step " << step;
    }
  }
}

TEST(SparseVectorTest, ToDense) {
  SparseVector v;
  v.Set(1, 1.5);
  v.Set(10, 3.0);  // dropped: beyond dims
  auto dense = v.ToDense(5);
  ASSERT_EQ(dense.size(), 5u);
  EXPECT_EQ(dense[1], 1.5);
  EXPECT_EQ(dense[0], 0.0);
}

TEST(SparseVectorTest, Equality) {
  SparseVector a, b;
  a.Set(1, 1.0);
  b.Set(1, 1.0);
  EXPECT_EQ(a, b);
  b.Set(2, 1.0);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace dehealth
