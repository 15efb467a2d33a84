#include "core/top_k.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "index/candidate_index.h"

namespace dehealth {
namespace {

const std::vector<std::vector<double>> kMatrix = {
    {0.9, 0.1, 0.5},
    {0.2, 0.8, 0.3},
};

TEST(SelectTopKTest, RejectsBadK) {
  EXPECT_FALSE(SelectTopKCandidates(kMatrix, 0).ok());
}

TEST(SelectTopKTest, RejectsRaggedMatrix) {
  EXPECT_FALSE(SelectTopKCandidates({{1.0}, {1.0, 2.0}}, 1).ok());
}

TEST(SelectTopKTest, EmptyMatrixOk) {
  auto c = SelectTopKCandidates({}, 3);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->empty());
}

TEST(SelectTopKTest, DirectSelectionOrdersBySimilarity) {
  auto c = SelectTopKCandidates(kMatrix, 2);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)[0], (std::vector<int>{0, 2}));
  EXPECT_EQ((*c)[1], (std::vector<int>{1, 2}));
}

TEST(SelectTopKTest, KCappedAtAuxiliaryCount) {
  auto c = SelectTopKCandidates(kMatrix, 10);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)[0].size(), 3u);
}

TEST(SelectTopKTest, GraphMatchingProducesKCandidatesEach) {
  auto c = SelectTopKCandidates(kMatrix, 2,
                                CandidateSelection::kGraphMatching);
  ASSERT_TRUE(c.ok());
  for (const auto& list : *c) EXPECT_EQ(list.size(), 2u);
}

TEST(SelectTopKTest, GraphMatchingAvoidsCollisionInRoundOne) {
  // Both anonymized users prefer aux 0, but a matching assigns distinct
  // partners per round; over 2 rounds both eventually get their favorite.
  std::vector<std::vector<double>> m = {{0.9, 0.5}, {0.8, 0.1}};
  auto c = SelectTopKCandidates(m, 2, CandidateSelection::kGraphMatching);
  ASSERT_TRUE(c.ok());
  // Each candidate list ordered by decreasing similarity.
  EXPECT_EQ((*c)[0], (std::vector<int>{0, 1}));
  EXPECT_EQ((*c)[1], (std::vector<int>{0, 1}));
}

TEST(SelectTopKTest, GraphMatchingNeverAdmitsZeroSimilarityPairs) {
  // Round 1 matches the identity pairs (total 1.5 beats the swap's 0.8)
  // and exhausts u0's only positive edge. Round 2 still has u1→v0 = 0.8,
  // and the matcher then pairs u0 with v1 — a pair with NO similarity.
  // The seed zeroed matched edges, so that zero-weight assignment was
  // indistinguishable from a real one and v1 leaked into u0's candidates.
  std::vector<std::vector<double>> m = {{1.0, 0.0}, {0.8, 0.5}};
  auto c = SelectTopKCandidates(m, 2, CandidateSelection::kGraphMatching);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)[0], (std::vector<int>{0}));     // never v1: similarity 0
  EXPECT_EQ((*c)[1], (std::vector<int>{0, 1}));  // both rounds legitimate,
                                                 // ordered by similarity
}

TEST(SelectTopKTest, GraphMatchingStopsWhenPositiveEdgesExhausted) {
  // After every positive edge is matched, further rounds must not invent
  // candidates out of the all-zero remainder.
  std::vector<std::vector<double>> m = {{1.0, 0.0}, {0.0, 1.0}};
  auto c = SelectTopKCandidates(m, 2, CandidateSelection::kGraphMatching);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)[0], (std::vector<int>{0}));
  EXPECT_EQ((*c)[1], (std::vector<int>{1}));
}

TEST(SelectTopKTest, DirectSelectionIdenticalForAnyThreadCount) {
  auto serial = SelectTopKCandidates(kMatrix, 2,
                                     CandidateSelection::kDirect, 1);
  auto threaded = SelectTopKCandidates(kMatrix, 2,
                                       CandidateSelection::kDirect, 8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(*serial, *threaded);
}

/// The reference ranking: every (score, id) fully sorted by
/// BetterScoredUser, then truncated to k.
std::vector<ScoredUser> FullSortTopK(const std::vector<double>& row, int k) {
  std::vector<ScoredUser> all;
  for (size_t v = 0; v < row.size(); ++v)
    all.push_back({row[v], static_cast<int>(v)});
  std::sort(all.begin(), all.end(), BetterScoredUser);
  all.resize(std::min(all.size(), static_cast<size_t>(k)));
  return all;
}

std::vector<int> IdsOf(const std::vector<ScoredUser>& scored) {
  std::vector<int> ids;
  for (const ScoredUser& c : scored) ids.push_back(c.user);
  return ids;
}

void ExpectScoredEqual(const std::vector<ScoredUser>& expected,
                       const std::vector<ScoredUser>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].user, expected[i].user) << "rank " << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
  }
}

/// The k values at the edges of the heap: one slot, one short of the row,
/// exactly the row, and past it.
std::vector<int> EdgeKs(size_t n) {
  const int ni = static_cast<int>(n);
  return {1, std::max(1, ni - 1), ni, ni + 5};
}

/// Checks every direct selector on `row` against FullSortTopK.
void ExpectDirectSelectorsMatchFullSort(const std::vector<double>& row) {
  EXPECT_TRUE(SelectTopKScored(row.data(), row.size(), 0).empty());
  for (const int k : EdgeKs(row.size())) {
    SCOPED_TRACE("n=" + std::to_string(row.size()) +
                 " k=" + std::to_string(k));
    const std::vector<ScoredUser> expected = FullSortTopK(row, k);
    ExpectScoredEqual(expected, SelectTopKScored(row.data(), row.size(), k));
    EXPECT_EQ(TopKForRow(row, k), IdsOf(expected));
    auto sets = SelectTopKCandidates({row}, k, CandidateSelection::kDirect, 1);
    ASSERT_TRUE(sets.ok());
    EXPECT_EQ((*sets)[0], IdsOf(expected));
  }
}

TEST(SelectTopKTest, SelectorMatchesFullSortOnTieDominatedRows) {
  std::mt19937 rng(15);
  const double kLevels[] = {0.25, 0.5, 0.75};
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 1 + rng() % 40;
    const bool all_equal = trial % 5 == 0;
    std::vector<double> row(n);
    for (double& score : row) score = all_equal ? 0.5 : kLevels[rng() % 3];
    ExpectDirectSelectorsMatchFullSort(row);
  }
}

/// Hand-made features of prototype `p`: candidates that copy a prototype
/// score identically against any query.
IndexedUserFeatures Prototype(int p) {
  IndexedUserFeatures f;
  f.degree = 1.0 + p;
  f.weighted_degree = 2.0 + 3.0 * p;
  f.ncs = {1.0, static_cast<double>(p)};
  f.hop = {static_cast<double>(p), 1.0, 2.0};
  f.weighted_hop = {0.5 + p, 1.0, 0.0};
  f.attributes = {{p, 1.0 + p}, {7, 2.0}};
  return f;
}

TEST(SelectTopKTest, IndexTopKMatchesFullSortOnTieDominatedRows) {
  std::mt19937 rng(16);
  const IndexedUserFeatures query = Prototype(3);
  for (int trial = 0; trial < 60; ++trial) {
    // Every candidate copies one of three prototypes (one, every fourth
    // trial: an all-equal row), so the exact row is nearly all ties.
    const int prototypes = trial % 4 == 0 ? 1 : 3;
    CandidateIndexData data;
    data.users.resize(1 + rng() % 40);
    for (IndexedUserFeatures& f : data.users)
      f = Prototype(static_cast<int>(rng() % prototypes));
    auto index = CandidateIndex::FromData(std::move(data));
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    std::vector<double> row;
    index->ExactRow(query, &row);
    for (const int k : EdgeKs(row.size())) {
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " k=" + std::to_string(k));
      ExpectScoredEqual(FullSortTopK(row, k),
                        index->TopKScoredForQuery(query, k));
    }
    ExpectDirectSelectorsMatchFullSort(row);
  }
}

TEST(TopKSuccessRateTest, CountsHits) {
  CandidateSets candidates = {{0, 2}, {1, 2}};
  EXPECT_EQ(TopKSuccessRate(candidates, {0, 2}), 1.0);
  EXPECT_EQ(TopKSuccessRate(candidates, {1, 0}), 0.0);
  EXPECT_EQ(TopKSuccessRate(candidates, {0, 0}), 0.5);
}

TEST(TopKSuccessRateTest, SkipsNonOverlapping) {
  CandidateSets candidates = {{0}, {1}};
  // Second user has no true mapping: only first counts.
  EXPECT_EQ(TopKSuccessRate(candidates, {0, -1}), 1.0);
  EXPECT_EQ(TopKSuccessRate(candidates, {-1, -1}), 0.0);
}

TEST(TopKSuccessCurveTest, MonotoneNonDecreasing) {
  CandidateSets candidates = {{3, 1, 0}, {2, 0, 1}};
  const std::vector<int> truth = {0, 2};
  auto curve = TopKSuccessCurve(candidates, truth, {1, 2, 3});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0], 0.5);  // truth 2 is rank 1 for user 1
  EXPECT_DOUBLE_EQ(curve[1], 0.5);
  EXPECT_DOUBLE_EQ(curve[2], 1.0);  // truth 0 at rank 3 for user 0
  for (size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i], curve[i - 1]);
}

TEST(TopKSuccessCurveTest, AllMissing) {
  CandidateSets candidates = {{1}, {2}};
  auto curve = TopKSuccessCurve(candidates, {-1, -1}, {1});
  EXPECT_EQ(curve[0], 0.0);
}

TEST(TopKSuccessRateTest, SizeMismatchIsDefinedBehavior) {
  // The seed only guarded this with assert(): in NDEBUG builds a truth
  // vector shorter than the candidate list meant an out-of-bounds read.
  // Mismatches now deterministically count as zero success.
  CandidateSets candidates = {{0}, {1}, {2}};
  EXPECT_EQ(TopKSuccessRate(candidates, {0, 1}), 0.0);   // truth too short
  EXPECT_EQ(TopKSuccessRate(candidates, {0, 1, 2, 3}), 0.0);  // too long
  EXPECT_EQ(TopKSuccessRate({}, {0}), 0.0);
}

TEST(TopKSuccessCurveTest, SizeMismatchIsDefinedBehavior) {
  CandidateSets candidates = {{0}, {1}, {2}};
  const std::vector<int> ks = {1, 2};
  auto curve = TopKSuccessCurve(candidates, {0, 1}, ks);
  EXPECT_EQ(curve, (std::vector<double>{0.0, 0.0}));
  curve = TopKSuccessCurve(candidates, {0, 1, 2, 3}, ks);
  EXPECT_EQ(curve, (std::vector<double>{0.0, 0.0}));
}

}  // namespace
}  // namespace dehealth
