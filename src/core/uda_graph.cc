#include "core/uda_graph.h"

#include "common/parallel.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"
#include "stylo/extractor.h"

namespace dehealth {

namespace {

/// Extracts the features of `posts` across up to `num_threads` threads,
/// each post into its own slot, then folds the slots into `uda` serially in
/// post order — so every user's AddPost sequence, and with it the result,
/// is the same for any thread count. The folding thread stores a copy of
/// each slot (exact capacity) and releases the slot: vectors allocated by
/// pool workers would otherwise stay resident in their per-thread malloc
/// arenas for the life of the graph.
void ExtractAndFold(const std::vector<Post>& posts, int num_threads,
                    UdaGraph* uda) {
  const FeatureExtractor extractor;
  std::vector<SparseVector> slots(posts.size());
  ParallelFor(
      0, static_cast<int64_t>(posts.size()),
      [&](int64_t i) {
        const auto p = static_cast<size_t>(i);
        slots[p] = extractor.ExtractPost(posts[p].text);
      },
      num_threads);
  for (size_t p = 0; p < posts.size(); ++p) {
    const auto uid = static_cast<size_t>(posts[p].user_id);
    uda->profiles[uid].AddPost(slots[p]);
    uda->post_features[uid].push_back(slots[p]);
    slots[p] = SparseVector();
  }
}

}  // namespace

UdaGraph BuildUdaGraph(const ForumDataset& dataset, int num_threads) {
  obs::Span span("core", "build_uda_graph");
  span.SetArg("posts", static_cast<int64_t>(dataset.posts.size()));
  obs::CoreMetrics& metrics = obs::GetCoreMetrics();
  metrics.uda_builds->Increment();
  metrics.uda_posts->Increment(dataset.posts.size());
  UdaGraph uda;
  uda.graph = BuildCorrelationGraph(dataset);
  uda.profiles.resize(static_cast<size_t>(dataset.num_users));
  uda.post_features.resize(static_cast<size_t>(dataset.num_users));
  ExtractAndFold(dataset.posts, num_threads, &uda);
  return uda;
}

Status ApplyPostsToUdaGraph(UdaGraph* uda, ForumDataset* dataset,
                            const std::vector<Post>& new_posts,
                            int num_users_after, int num_threads_after) {
  obs::Span span("core", "apply_posts_to_uda_graph");
  span.SetArg("posts", static_cast<int64_t>(new_posts.size()));
  if (num_users_after < dataset->num_users ||
      num_threads_after < dataset->num_threads)
    return Status::InvalidArgument(
        "ApplyPostsToUdaGraph: universe must not shrink (" +
        std::to_string(num_users_after) + " users after vs " +
        std::to_string(dataset->num_users) + " before)");
  for (const Post& post : new_posts) {
    if (post.user_id < 0 || post.user_id >= num_users_after)
      return Status::OutOfRange(
          "ApplyPostsToUdaGraph: user_id " + std::to_string(post.user_id) +
          " outside [0, " + std::to_string(num_users_after) + ")");
    if (post.thread_id < 0 || post.thread_id >= num_threads_after)
      return Status::OutOfRange(
          "ApplyPostsToUdaGraph: thread_id " +
          std::to_string(post.thread_id) + " outside [0, " +
          std::to_string(num_threads_after) + ")");
  }
  obs::CoreMetrics& metrics = obs::GetCoreMetrics();
  metrics.uda_posts->Increment(new_posts.size());
  dataset->num_users = num_users_after;
  dataset->num_threads = num_threads_after;
  dataset->posts.insert(dataset->posts.end(), new_posts.begin(),
                        new_posts.end());
  uda->profiles.resize(static_cast<size_t>(num_users_after));
  uda->post_features.resize(static_cast<size_t>(num_users_after));
  // Serial on purpose: the writer applying a segment shares the host with
  // the query path, and a segment's freshness is set by the seal cadence,
  // not by how fast its posts are extracted.
  ExtractAndFold(new_posts, 1, uda);
  // The graph is rebuilt from the accumulated dataset rather than patched:
  // BuildCorrelationGraph keys on thread->participant sets (order-free), so
  // the rebuild is bitwise what a from-scratch build would produce, and it
  // costs no text processing — the expensive part above touched only the
  // new posts.
  uda->graph = BuildCorrelationGraph(*dataset);
  return Status::OK();
}

}  // namespace dehealth
