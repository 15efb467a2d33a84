#include "core/top_k.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/parallel.h"
#include "graph/bipartite_matching.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

namespace {

CandidateSets DirectSelection(
    const std::vector<std::vector<double>>& similarity, int k,
    int num_threads) {
  CandidateSets candidates(similarity.size());
  // Each task owns one row's candidate list; output is independent of the
  // thread count.
  ParallelFor(
      0, static_cast<int64_t>(similarity.size()),
      [&](int64_t ui) {
        const size_t u = static_cast<size_t>(ui);
        candidates[u] = TopKForRow(similarity[u], k);
      },
      num_threads);
  return candidates;
}

CandidateSets GraphMatchingSelection(
    const std::vector<std::vector<double>>& similarity, int k) {
  // Bookkeeping copy: matched edges are marked with a -infinity sentinel so
  // they stay distinguishable from legitimately zero-similarity pairs (the
  // old code zeroed them, so an all-zero round could "match" and admit
  // pairs with no similarity at all).
  constexpr double kMatched = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> weights = similarity;
  CandidateSets candidates(similarity.size());
  const size_t n2 = similarity.empty() ? 0 : similarity[0].size();
  const int rounds = static_cast<int>(std::min(static_cast<size_t>(k), n2));
  for (int round = 0; round < rounds; ++round) {
    // The Hungarian solver requires non-negative weights; matched (and any
    // negative) entries participate as weight 0 but are never admitted.
    std::vector<std::vector<double>> solver_weights(weights.size());
    for (size_t u = 0; u < weights.size(); ++u) {
      solver_weights[u].resize(weights[u].size());
      for (size_t v = 0; v < weights[u].size(); ++v)
        solver_weights[u][v] = std::max(weights[u][v], 0.0);
    }
    const std::vector<int> assignment =
        MaxWeightBipartiteMatching(solver_weights);
    bool any_admitted = false;
    for (size_t u = 0; u < assignment.size(); ++u) {
      const int v = assignment[u];
      if (v < 0) continue;
      // Only positive-similarity assignments become candidates: previously
      // matched edges (sentinel) and zero-similarity pairs are both
      // skipped, which also makes duplicate candidates impossible.
      if (weights[u][static_cast<size_t>(v)] <= 0.0) continue;
      candidates[u].push_back(v);
      weights[u][static_cast<size_t>(v)] = kMatched;
      any_admitted = true;
    }
    if (!any_admitted) break;  // all remaining edges are zero or matched
  }
  // Order each candidate list by decreasing original similarity.
  for (size_t u = 0; u < candidates.size(); ++u) {
    const auto& row = similarity[u];
    std::stable_sort(candidates[u].begin(), candidates[u].end(),
                     [&row](int a, int b) {
                       return row[static_cast<size_t>(a)] >
                              row[static_cast<size_t>(b)];
                     });
  }
  return candidates;
}

}  // namespace

std::vector<ScoredUser> SelectTopKScored(const double* row, size_t n,
                                         int k) {
  const size_t want = std::min(static_cast<size_t>(std::max(k, 0)), n);
  if (want == 0) return {};
  std::vector<ScoredUser> heap;
  heap.reserve(want);
  for (size_t v = 0; v < want; ++v)
    heap.push_back({row[v], static_cast<int>(v)});
  // Max-heap under BetterScoredUser: front() is the worst kept candidate.
  std::make_heap(heap.begin(), heap.end(), BetterScoredUser);
  for (size_t v = want; v < n; ++v) {
    const ScoredUser c{row[v], static_cast<int>(v)};
    if (!BetterScoredUser(c, heap.front())) continue;
    std::pop_heap(heap.begin(), heap.end(), BetterScoredUser);
    heap.back() = c;
    std::push_heap(heap.begin(), heap.end(), BetterScoredUser);
  }
  std::sort_heap(heap.begin(), heap.end(), BetterScoredUser);
  return heap;
}

std::vector<int> TopKForRow(const std::vector<double>& row, int k) {
  assert(k >= 1);
  const std::vector<ScoredUser> scored =
      SelectTopKScored(row.data(), row.size(), k);
  std::vector<int> ids;
  ids.reserve(scored.size());
  for (const ScoredUser& c : scored) ids.push_back(c.user);
  return ids;
}

std::vector<ScoredUser> MergeScoredTopK(
    const std::vector<std::vector<ScoredUser>>& per_shard, int k) {
  std::vector<ScoredUser> merged;
  size_t total = 0;
  for (const auto& shard : per_shard) total += shard.size();
  merged.reserve(total);
  for (const auto& shard : per_shard)
    merged.insert(merged.end(), shard.begin(), shard.end());
  const size_t take =
      std::min(static_cast<size_t>(std::max(k, 0)), merged.size());
  std::partial_sort(merged.begin(), merged.begin() + static_cast<long>(take),
                    merged.end(), BetterScoredUser);
  merged.resize(take);
  return merged;
}

StatusOr<CandidateSets> SelectTopKCandidates(
    const std::vector<std::vector<double>>& similarity, int k,
    CandidateSelection method, int num_threads) {
  if (k < 1)
    return Status::InvalidArgument("SelectTopKCandidates: k must be >= 1");
  if (similarity.empty()) return CandidateSets{};
  obs::Span span("core", "select_top_k");
  span.SetArg("rows", static_cast<int64_t>(similarity.size()));
  obs::GetCoreMetrics().topk_dense_rows->Increment(similarity.size());
  const size_t n2 = similarity[0].size();
  for (const auto& row : similarity)
    if (row.size() != n2)
      return Status::InvalidArgument(
          "SelectTopKCandidates: ragged similarity matrix");
  switch (method) {
    case CandidateSelection::kDirect:
      return DirectSelection(similarity, k, num_threads);
    case CandidateSelection::kGraphMatching:
      return GraphMatchingSelection(similarity, k);
  }
  return Status::InvalidArgument("SelectTopKCandidates: unknown method");
}

double TopKSuccessRate(const CandidateSets& candidates,
                       const std::vector<int>& truth) {
  // Size mismatch previously only tripped an assert — in NDEBUG builds the
  // loop read past the end of `truth`. Degrade to "no successes" instead.
  if (candidates.size() != truth.size()) return 0.0;
  int overlapping = 0, hits = 0;
  for (size_t u = 0; u < candidates.size(); ++u) {
    if (truth[u] < 0) continue;
    ++overlapping;
    if (std::find(candidates[u].begin(), candidates[u].end(), truth[u]) !=
        candidates[u].end())
      ++hits;
  }
  if (overlapping == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(overlapping);
}

std::vector<double> TopKSuccessCurve(const CandidateSets& candidates,
                                     const std::vector<int>& truth,
                                     const std::vector<int>& ks) {
  // See TopKSuccessRate: mismatch must not be UB in release builds.
  if (candidates.size() != truth.size())
    return std::vector<double>(ks.size(), 0.0);
  assert(std::is_sorted(ks.begin(), ks.end()));
  std::vector<int> hits_at(ks.size(), 0);
  int overlapping = 0;
  for (size_t u = 0; u < candidates.size(); ++u) {
    if (truth[u] < 0) continue;
    ++overlapping;
    const auto& list = candidates[u];
    const auto it = std::find(list.begin(), list.end(), truth[u]);
    if (it == list.end()) continue;
    const int rank = static_cast<int>(it - list.begin()) + 1;
    for (size_t i = 0; i < ks.size(); ++i)
      if (rank <= ks[i]) ++hits_at[i];
  }
  std::vector<double> rates(ks.size(), 0.0);
  if (overlapping > 0)
    for (size_t i = 0; i < ks.size(); ++i)
      rates[i] = static_cast<double>(hits_at[i]) /
                 static_cast<double>(overlapping);
  return rates;
}

}  // namespace dehealth
