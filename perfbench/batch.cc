// The two batch workloads: attack-oneshot (the whole `dehealth_cli attack`
// pipeline from loaded JSONL to predictions) and rescore-idf (phase 1
// recomputed with IDF weights over UDA graphs already in memory).
#include <filesystem>
#include <memory>
#include <utility>

#include "core/de_health.h"
#include "core/top_k.h"
#include "index/pipeline.h"
#include "io/forum_io.h"
#include "workloads.h"

namespace perfbench {

using dehealth::DeHealth;
using dehealth::DeHealthConfig;
using dehealth::ForumDataset;
using dehealth::Status;
using dehealth::StatusOr;
using dehealth::UdaGraph;

namespace {

// Forum sizes (users before the 0.5 split). attack-oneshot is sized so one
// attack fits several times into a run while the exact-path score kernel
// keeps a visible share next to extraction; rescore-idf so the merge-path
// kernel dominates its timed phase.
constexpr int kAttackUsers = 4000;
constexpr int kRescoreUsers = 2400;
constexpr int kTopK = 10;
// Set-up repetitions per run; set-up time is their median.
constexpr int kAttackSetupReps = 5;
constexpr int kRescoreSetupReps = 3;

struct Loaded {
  ForumDataset anonymized;
  ForumDataset auxiliary;
};

StatusOr<Loaded> LoadBoth(const Inputs& inputs, Ledger* ledger,
                          double* load_s, double* bytes) {
  Loaded loaded;
  StatusOr<ForumDataset> anon =
      LoadDataset(inputs.anon_path, ledger, load_s, bytes);
  if (!anon.ok()) return anon.status();
  StatusOr<ForumDataset> aux =
      LoadDataset(inputs.aux_path, ledger, load_s, bytes);
  if (!aux.ok()) return aux.status();
  loaded.anonymized = std::move(anon).value();
  loaded.auxiliary = std::move(aux).value();
  return loaded;
}

DeHealthConfig AttackConfig(int threads) {
  DeHealthConfig config;
  config.top_k = kTopK;
  config.num_threads = threads;
  config.refined.learner = dehealth::LearnerKind::kNearestCentroid;
  return config;
}

/// One full attack and what the gates and per-layer ledger need from it.
struct AttackResult {
  double seconds = 0.0;
  double uda_s = 0.0;
  double select_s = 0.0;
  double refine_s = 0.0;
  uint64_t candidates_checksum = 0;
  uint64_t predictions_checksum = 0;
  double top10_success = 0.0;
  double refined_accuracy = 0.0;
  int users = 0;
  /// The attack's UDA graphs, kept only by a traced attack (the probes
  /// reuse them); untraced repetitions free theirs so peak RSS does not
  /// grow with the number of repetitions that fit in a run.
  std::unique_ptr<UdaGraph> anonymized;
  std::unique_ptr<UdaGraph> auxiliary;
};

StatusOr<AttackResult> AttackOnce(const Loaded& loaded,
                                  const std::vector<int>& truth,
                                  const DeHealthConfig& config,
                                  Ledger* ledger) {
  AttackResult result;
  Ledger::Scope op_span(ledger, "harness", "attack");
  const Clock::time_point start = Clock::now();
  auto anonymized = std::make_unique<UdaGraph>(
      BuildUda(loaded.anonymized, ledger, &result.uda_s));
  auto auxiliary = std::make_unique<UdaGraph>(
      BuildUda(loaded.auxiliary, ledger, &result.uda_s));
  std::unique_ptr<dehealth::AttackScoreSource> bundle;
  {
    Ledger::Scope span(ledger, "core", "build_attack_score_source");
    StatusOr<std::unique_ptr<dehealth::AttackScoreSource>> built =
        dehealth::BuildAttackScoreSource(*anonymized, *auxiliary, config);
    if (!built.ok()) return built.status();
    bundle = std::move(built).value();
  }
  const DeHealth attack(config);
  dehealth::DeHealthCandidates state;
  {
    Ledger::Scope span(ledger, "core", "select_candidates");
    StatusOr<dehealth::DeHealthCandidates> selected =
        attack.SelectCandidates(*bundle->source);
    if (!selected.ok()) return selected.status();
    state = std::move(selected).value();
    result.select_s = span.Elapsed();
  }
  std::vector<int> users(static_cast<size_t>(anonymized->num_users()));
  for (size_t u = 0; u < users.size(); ++u) users[u] = static_cast<int>(u);
  dehealth::RefinedDaResult refined;
  {
    Ledger::Scope span(ledger, "core", "refine_users");
    StatusOr<dehealth::RefinedDaResult> answered = attack.RefineUsers(
        *anonymized, *auxiliary, *bundle->source, state, users);
    if (!answered.ok()) return answered.status();
    refined = std::move(answered).value();
    result.refine_s = span.Elapsed();
  }
  result.seconds = SecondsSince(start);
  result.users = static_cast<int>(users.size());
  result.candidates_checksum = ChecksumCandidates(state.candidates);
  result.predictions_checksum = ChecksumInts(refined.predictions);
  result.top10_success = dehealth::TopKSuccessRate(state.candidates, truth);
  result.refined_accuracy = Accuracy(refined.predictions, truth);
  if (ledger->enabled()) {
    result.anonymized = std::move(anonymized);
    result.auxiliary = std::move(auxiliary);
  }
  return result;
}

struct RescoreResult {
  double seconds = 0.0;
  double prep_s = 0.0;
  double select_s = 0.0;
  uint64_t candidates_checksum = 0;
  double top10_success = 0.0;
};

dehealth::SimilarityConfig RescoreConfig(int threads) {
  dehealth::SimilarityConfig config;
  config.idf_weight_attributes = true;
  config.num_threads = threads;
  return config;
}

StatusOr<RescoreResult> RescoreOnce(const UdaGraph& anonymized,
                                    const UdaGraph& auxiliary,
                                    const std::vector<int>& truth, int threads,
                                    Ledger* ledger) {
  RescoreResult result;
  Ledger::Scope op_span(ledger, "harness", "rescore");
  const Clock::time_point start = Clock::now();
  std::unique_ptr<dehealth::StructuralSimilarity> similarity;
  {
    Ledger::Scope span(ledger, "core", "structural_similarity");
    similarity = std::make_unique<dehealth::StructuralSimilarity>(
        anonymized, auxiliary, RescoreConfig(threads));
    result.prep_s = span.Elapsed();
  }
  std::vector<std::vector<double>> matrix;
  {
    Ledger::Scope span(ledger, "core", "compute_matrix");
    matrix = similarity->ComputeMatrix();
  }
  dehealth::CandidateSets candidates;
  {
    Ledger::Scope span(ledger, "core", "select_top_k_candidates");
    StatusOr<dehealth::CandidateSets> selected =
        dehealth::SelectTopKCandidates(matrix, kTopK,
                                       dehealth::CandidateSelection::kDirect,
                                       threads);
    if (!selected.ok()) return selected.status();
    candidates = std::move(selected).value();
    result.select_s = span.Elapsed();
  }
  result.seconds = SecondsSince(start);
  result.candidates_checksum = ChecksumCandidates(candidates);
  result.top10_success = dehealth::TopKSuccessRate(candidates, truth);
  return result;
}

/// The measured loop of a batch workload. Untraced runs repeat `op` back to
/// back until --seconds have passed (at least once); traced runs run it
/// once untraced and once traced, so the gate compares the two and their
/// difference is the tracing overhead. Each operation's wall time is one
/// latency sample.
template <typename Result, typename Op>
Status RunOperations(const RunOptions& options, const Op& op, Report* report,
                     Ledger* ledger, std::vector<Result>* results) {
  Ledger untraced(false);
  const auto once = [&](Ledger* run_ledger) -> Status {
    ++report->outcomes.attempted;
    StatusOr<Result> result = op(run_ledger);
    if (!result.ok()) {
      report->outcomes.RecordFailure(result.status());
      return result.status();
    }
    report->latency_ms.push_back(1000.0 * result->seconds);
    results->push_back(std::move(result).value());
    return Status();
  };
  const Clock::time_point start = Clock::now();
  if (options.trace) {
    DEHEALTH_RETURN_IF_ERROR(once(&untraced));
    DEHEALTH_RETURN_IF_ERROR(once(ledger));
    report->trace_overhead_ms =
        1000.0 * ((*results)[1].seconds - (*results)[0].seconds);
  } else {
    // No operation starts that the median so far says would end past the
    // window, so a run lasts --seconds rather than up to one more operation.
    while (results->empty() ||
           SecondsSince(start) + Median(report->latency_ms) / 1000.0 <=
               options.seconds)
      DEHEALTH_RETURN_IF_ERROR(once(&untraced));
  }
  report->measured_s = SecondsSince(start);
  report->succeeded = results->size();
  report->values["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return Status();
}

}  // namespace

StatusOr<ForumDataset> LoadDataset(const std::string& path, Ledger* ledger,
                                   double* load_s, double* bytes) {
  Ledger::Scope span(ledger, "io", "load_forum_dataset");
  StatusOr<ForumDataset> dataset = dehealth::LoadForumDataset(path);
  *load_s += span.Elapsed();
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  if (!error) *bytes += static_cast<double>(size);
  return dataset;
}

UdaGraph BuildUda(const ForumDataset& dataset, Ledger* ledger,
                  double* build_s) {
  Ledger::Scope span(ledger, "core", "build_uda_graph");
  UdaGraph uda = dehealth::BuildUdaGraph(dataset);
  *build_s += span.Elapsed();
  return uda;
}

void RecordLoad(Ledger* ledger, double load_s, double bytes) {
  ledger->Record("io.load_s", load_s, "s", "traffic");
  if (load_s > 0.0)
    ledger->Record("io.load_mb_per_s", bytes / 1e6 / load_s, "MB/s",
                   "traffic");
}

double Accuracy(const std::vector<int>& predictions,
                const std::vector<int>& truth) {
  if (predictions.empty() || predictions.size() != truth.size()) return 0.0;
  size_t correct = 0;
  for (size_t u = 0; u < truth.size(); ++u)
    if (truth[u] >= 0 && predictions[u] == truth[u]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

Status RunAttackOneshot(const RunOptions& options, Report* report,
                        Ledger* ledger) {
  StatusOr<Inputs> inputs =
      MakeInputs(kAttackUsers, options.seed, options.workdir, "attack");
  if (!inputs.ok()) return inputs.status();
  const std::vector<int>& truth = inputs->scenario.truth;

  // Set-up: inputs on disk -> datasets in memory. Every attack starts from
  // the files, as a CLI invocation does, so each one adds a set-up sample;
  // spread over the run, they average out the host's slower phases.
  Loaded loaded;
  std::vector<double> load_times;
  double bytes = 0.0;
  const auto load = [&](Ledger* load_ledger) -> Status {
    double load_s = 0.0;
    bytes = 0.0;
    const Clock::time_point start = Clock::now();
    StatusOr<Loaded> both = LoadBoth(*inputs, load_ledger, &load_s, &bytes);
    if (!both.ok()) return both.status();
    loaded = std::move(both).value();
    report->setup_s.push_back(SecondsSince(start));
    load_times.push_back(load_s);
    return Status();
  };
  for (int rep = 0; rep < kAttackSetupReps; ++rep)
    DEHEALTH_RETURN_IF_ERROR(load(ledger));

  const DeHealthConfig config = AttackConfig(options.threads);
  std::vector<AttackResult> results;
  DEHEALTH_RETURN_IF_ERROR(RunOperations<AttackResult>(
      options,
      [&](Ledger* run_ledger) -> StatusOr<AttackResult> {
        DEHEALTH_RETURN_IF_ERROR(load(run_ledger));
        return AttackOnce(loaded, truth, config, run_ledger);
      },
      report, ledger, &results));

  bool same = true;
  for (const AttackResult& result : results)
    same = same &&
           result.candidates_checksum == results[0].candidates_checksum &&
           result.predictions_checksum == results[0].predictions_checksum;
  report->AddGate(options.trace ? "traced attack == untraced attack"
                                : "every attack repetition agrees",
                  same, "candidate and prediction checksums");
  const AttackResult& last = results.back();
  report->values["attack_s"] = {Median(report->latency_ms) / 1000.0, "s"};
  report->values["top10_success"] = {last.top10_success, "ratio"};
  report->values["refined_accuracy"] = {last.refined_accuracy, "ratio"};

  if (!options.trace) return Status();
  RecordLoad(ledger, Median(load_times), bytes);
  ledger->Record("core.uda_build_s", last.uda_s, "s", "traffic");
  ledger->Record("core.select_s", last.select_s, "s", "traffic");
  ledger->Record("core.refine_s", last.refine_s, "s", "traffic");
  ledger->Record("core.refine_us_per_user",
                 1e6 * last.refine_s / std::max(1, last.users), "us",
                 "traffic");
  dehealth::SimilarityConfig similarity = config.similarity;
  similarity.num_threads = options.threads;
  DEHEALTH_RETURN_IF_ERROR(ProbeBatchLayers(
      loaded.anonymized, loaded.auxiliary, *last.anonymized, *last.auxiliary,
      similarity, kTopK, ledger));
  return ProbeServingLayers(options, ledger, /*ingest=*/true, /*shard=*/true);
}

Status RunRescoreIdf(const RunOptions& options, Report* report,
                     Ledger* ledger) {
  StatusOr<Inputs> inputs =
      MakeInputs(kRescoreUsers, options.seed, options.workdir, "rescore");
  if (!inputs.ok()) return inputs.status();
  const std::vector<int>& truth = inputs->scenario.truth;

  // Set-up: load both sides and build both UDA graphs.
  Loaded loaded;
  std::unique_ptr<UdaGraph> anonymized;
  std::unique_ptr<UdaGraph> auxiliary;
  std::vector<double> load_times;
  std::vector<double> build_times;
  double bytes = 0.0;
  for (int rep = 0; rep < kRescoreSetupReps; ++rep) {
    double load_s = 0.0;
    double build_s = 0.0;
    bytes = 0.0;
    const Clock::time_point start = Clock::now();
    StatusOr<Loaded> both = LoadBoth(*inputs, ledger, &load_s, &bytes);
    if (!both.ok()) return both.status();
    loaded = std::move(both).value();
    anonymized = std::make_unique<UdaGraph>(
        BuildUda(loaded.anonymized, ledger, &build_s));
    auxiliary = std::make_unique<UdaGraph>(
        BuildUda(loaded.auxiliary, ledger, &build_s));
    report->setup_s.push_back(SecondsSince(start));
    load_times.push_back(load_s);
    build_times.push_back(build_s);
  }

  std::vector<RescoreResult> results;
  DEHEALTH_RETURN_IF_ERROR(RunOperations<RescoreResult>(
      options,
      [&](Ledger* run_ledger) {
        return RescoreOnce(*anonymized, *auxiliary, truth, options.threads,
                           run_ledger);
      },
      report, ledger, &results));

  bool same = true;
  for (const RescoreResult& result : results)
    same = same &&
           result.candidates_checksum == results[0].candidates_checksum;
  report->AddGate(options.trace ? "traced rescore == untraced rescore"
                                : "every rescore repetition agrees",
                  same, "candidate checksums");
  report->values["rescore_s"] = {Median(report->latency_ms) / 1000.0, "s"};
  report->values["top10_success"] = {results.back().top10_success, "ratio"};

  if (!options.trace) return Status();
  const RescoreResult& last = results.back();
  RecordLoad(ledger, Median(load_times), bytes);
  ledger->Record("core.uda_build_s", Median(build_times), "s", "traffic");
  ledger->Record("core.similarity_prep_s", last.prep_s, "s", "traffic");
  ledger->Record("core.select_s", last.select_s, "s", "traffic");
  DEHEALTH_RETURN_IF_ERROR(ProbeBatchLayers(
      loaded.anonymized, loaded.auxiliary, *anonymized, *auxiliary,
      RescoreConfig(options.threads), kTopK, ledger));
  return ProbeServingLayers(options, ledger, /*ingest=*/true, /*shard=*/true);
}

}  // namespace perfbench
