// Per-layer probes of a traced run: direct calls into the text, stylo,
// graph, core and index entry points on the workload's own inputs. They
// run after the workload's traffic and record only the metrics the traffic
// did not reach, so each workload reports every layer.
#include <algorithm>
#include <memory>
#include <utility>

#include "common/parallel.h"
#include "core/de_health.h"
#include "core/feature_store.h"
#include "graph/landmarks.h"
#include "index/candidate_index.h"
#include "stylo/extractor.h"
#include "text/tokenizer.h"
#include "workloads.h"

namespace perfbench {

using dehealth::ForumDataset;
using dehealth::Status;
using dehealth::StatusOr;
using dehealth::UdaGraph;

namespace {

// Caps keep the probes to a few seconds: per-post costs are averaged over
// an evenly spaced sample of posts, and index/refine costs over a sample of
// anonymized users.
constexpr size_t kPostSample = 4000;
constexpr size_t kUserSample = 256;

std::vector<const dehealth::Post*> SamplePosts(const ForumDataset& anonymized,
                                               const ForumDataset& auxiliary) {
  std::vector<const dehealth::Post*> all;
  for (const ForumDataset* dataset : {&anonymized, &auxiliary})
    for (const dehealth::Post& post : dataset->posts) all.push_back(&post);
  if (all.size() <= kPostSample) return all;
  std::vector<const dehealth::Post*> sample;
  for (size_t i = 0; i < kPostSample; ++i)
    sample.push_back(all[i * all.size() / kPostSample]);
  return sample;
}

std::vector<int> SampleUsers(int num_users) {
  std::vector<int> users;
  const size_t n = static_cast<size_t>(num_users);
  const size_t count = std::min(n, kUserSample);
  for (size_t i = 0; i < count; ++i)
    users.push_back(static_cast<int>(i * n / count));
  return users;
}

dehealth::UserFeatureView View(const dehealth::IndexedUserFeatures& user) {
  dehealth::UserFeatureView view;
  view.degree = user.degree;
  view.weighted_degree = user.weighted_degree;
  view.ncs = &user.ncs;
  view.hop = &user.hop;
  view.weighted_hop = &user.weighted_hop;
  view.attributes = &user.attributes;
  return view;
}

// Bytes of one stored user's features the score kernel reads per pair:
// degree, weighted degree, the hop/weighted-hop/NCS vectors, three norms,
// the attribute (id, weight) run, its total and its CSR offset. Computed
// from the stored sizes, not measured.
double ScoreBytesPerPair(
    const std::vector<dehealth::IndexedUserFeatures>& users) {
  if (users.empty()) return 0.0;
  double bytes = 0.0;
  for (const dehealth::IndexedUserFeatures& user : users)
    bytes += 8.0 * static_cast<double>(2 + user.hop.size() +
                                       user.weighted_hop.size() +
                                       user.ncs.size() + 3 + 2) +
             12.0 * static_cast<double>(user.attributes.size());
  return bytes / static_cast<double>(users.size());
}

void ProbeTextAndStylo(const ForumDataset& anonymized,
                       const ForumDataset& auxiliary, Ledger* ledger) {
  const std::vector<const dehealth::Post*> posts =
      SamplePosts(anonymized, auxiliary);
  if (posts.empty()) return;
  const double n = static_cast<double>(posts.size());
  size_t tokens = 0;
  {
    Ledger::Scope span(ledger, "text", "tokenize");
    for (const dehealth::Post* post : posts)
      tokens += dehealth::Tokenize(post->text).size();
    ledger->Record("text.tokenize_us_per_post", 1e6 * span.Elapsed() / n,
                   "us", "probe");
  }
  ledger->Record("text.tokens_per_post", static_cast<double>(tokens) / n,
                 "count", "probe");
  const dehealth::FeatureExtractor extractor;
  size_t nnz = 0;
  {
    Ledger::Scope span(ledger, "stylo", "extract_post");
    for (const dehealth::Post* post : posts)
      nnz += extractor.ExtractPost(post->text).NumNonZero();
    ledger->Record("stylo.extract_us_per_post", 1e6 * span.Elapsed() / n,
                   "us", "probe");
  }
  ledger->Record("stylo.nnz_per_post", static_cast<double>(nnz) / n, "count",
                 "probe");
}

void ProbeGraph(const ForumDataset& auxiliary, const UdaGraph& auxiliary_uda,
                const dehealth::SimilarityConfig& similarity, Ledger* ledger) {
  {
    Ledger::Scope span(ledger, "graph", "build_correlation_graph");
    const dehealth::CorrelationGraph graph =
        dehealth::BuildCorrelationGraph(auxiliary);
    ledger->Record("graph.correlation_s", span.Elapsed(), "s", "probe");
  }
  Ledger::Scope span(ledger, "graph", "landmark_index");
  const dehealth::LandmarkIndex landmarks(auxiliary_uda.graph,
                                          similarity.num_landmarks,
                                          similarity.num_threads);
  ledger->Record("graph.landmarks_s", span.Elapsed(), "s", "probe");
}

}  // namespace

Status ProbeBatchLayers(const ForumDataset& anonymized,
                        const ForumDataset& auxiliary,
                        const UdaGraph& anonymized_uda,
                        const UdaGraph& auxiliary_uda,
                        const dehealth::SimilarityConfig& similarity,
                        int top_k, Ledger* ledger) {
  Ledger::Scope probe_span(ledger, "harness", "probe_layers");
  const int threads = similarity.num_threads;
  ProbeTextAndStylo(anonymized, auxiliary, ledger);
  ProbeGraph(auxiliary, auxiliary_uda, similarity, ledger);

  {
    Ledger::Scope span(ledger, "core", "structural_similarity");
    const dehealth::StructuralSimilarity prepared(anonymized_uda,
                                                  auxiliary_uda, similarity);
    ledger->Record("core.similarity_prep_s", span.Elapsed(), "s", "probe");
  }

  // The index supplies both sides' features, which are bitwise those the
  // dense path packs, so the probe can time packing and scoring apart.
  std::unique_ptr<dehealth::CandidateIndex> index;
  {
    Ledger::Scope span(ledger, "index", "build");
    StatusOr<dehealth::CandidateIndex> built =
        dehealth::CandidateIndex::Build(auxiliary_uda, similarity);
    if (!built.ok()) return built.status();
    index = std::make_unique<dehealth::CandidateIndex>(std::move(built).value());
    ledger->Record("index.build_s", span.Elapsed(), "s", "probe");
  }
  const std::vector<dehealth::IndexedUserFeatures> queries =
      index->ComputeQueryFeatures(anonymized_uda, threads);
  const std::vector<dehealth::IndexedUserFeatures>& stored =
      index->data().users;

  std::vector<dehealth::UserFeatureView> views;
  views.reserve(stored.size());
  for (const dehealth::IndexedUserFeatures& user : stored)
    views.push_back(View(user));
  dehealth::FeatureStore store;
  {
    Ledger::Scope span(ledger, "core", "feature_store_build");
    store = dehealth::FeatureStore::Build(views);
    ledger->Record("core.feature_pack_s", span.Elapsed(), "s", "probe");
  }

  const size_t n1 = queries.size();
  const size_t n2 = stored.size();
  std::vector<std::vector<double>> matrix(n1, std::vector<double>(n2));
  {
    Ledger::Scope span(ledger, "core", "score_rows");
    dehealth::ParallelFor(
        0, static_cast<int64_t>(n1),
        [&](int64_t u) {
          const dehealth::ScoreQuery query =
              store.MakeQuery(View(queries[static_cast<size_t>(u)]));
          store.ScoreRow(similarity, query,
                         matrix[static_cast<size_t>(u)].data());
        },
        threads);
    const double seconds = span.Elapsed();
    const double pairs = static_cast<double>(n1) * static_cast<double>(n2);
    ledger->Record("core.score_s", seconds, "s", "probe");
    ledger->Record("core.pairs_scored", pairs, "count", "probe");
    if (seconds > 0.0)
      ledger->Record("core.pairs_per_s_per_core",
                     pairs / seconds / std::max(1, threads), "1/s", "probe");
  }
  ledger->Record("core.score_bytes_per_pair", ScoreBytesPerPair(stored),
                 "B_computed", "probe");

  const dehealth::DenseCandidateSource source(matrix);
  dehealth::DeHealthConfig config;
  config.similarity = similarity;
  config.top_k = top_k;
  config.num_threads = threads;
  config.refined.learner = dehealth::LearnerKind::kNearestCentroid;
  const dehealth::DeHealth attack(config);
  dehealth::DeHealthCandidates state;
  {
    Ledger::Scope span(ledger, "core", "select_candidates");
    StatusOr<dehealth::DeHealthCandidates> selected =
        attack.SelectCandidates(source);
    if (!selected.ok()) return selected.status();
    state = std::move(selected).value();
    ledger->Record("core.select_s", span.Elapsed(), "s", "probe");
  }
  const std::vector<int> users = SampleUsers(anonymized_uda.num_users());
  if (!ledger->Has("core.refine_s")) {
    Ledger::Scope span(ledger, "core", "refine_users");
    StatusOr<dehealth::RefinedDaResult> refined = attack.RefineUsers(
        anonymized_uda, auxiliary_uda, source, state, users);
    if (!refined.ok()) return refined.status();
    const double seconds = span.Elapsed();
    ledger->Record("core.refine_s", seconds, "s", "probe");
    ledger->Record("core.refine_us_per_user",
                   1e6 * seconds / static_cast<double>(users.size()), "us",
                   "probe");
  }

  // Indexed Top-K per row at the serving workloads' K, with the index's own
  // prune counters.
  const IndexCounters counters = IndexCounters::Read();
  {
    Ledger::Scope span(ledger, "index", "topk_scored_for_query");
    for (int u : users)
      index->TopKScoredForQuery(queries[static_cast<size_t>(u)], 2 * top_k);
    ledger->Record("index.topk_us_per_row",
                   1e6 * span.Elapsed() / static_cast<double>(users.size()),
                   "us", "probe");
  }
  counters.RecordDelta("probe", ledger);
  return Status();
}

}  // namespace perfbench
