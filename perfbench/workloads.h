// The four workloads (router-topk runs by name but is not in BENCHMARK.json)
// and the per-layer probes of a traced run.
// Each workload fills a Report (end-to-end samples, outcomes, correctness
// gates) and, when the ledger is enabled, per-layer metrics and spans.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/similarity.h"
#include "core/uda_graph.h"
#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  int threads = 1;
};

dehealth::Status RunAttackOneshot(const RunOptions& options, Report* report,
                                  Ledger* ledger);
dehealth::Status RunRescoreIdf(const RunOptions& options, Report* report,
                               Ledger* ledger);
dehealth::Status RunServeIngest(const RunOptions& options, Report* report,
                                Ledger* ledger);
dehealth::Status RunRouterTopK(const RunOptions& options, Report* report,
                               Ledger* ledger);

/// LoadForumDataset under an io span; adds its wall time and the file's
/// size to *load_s and *bytes.
dehealth::StatusOr<dehealth::ForumDataset> LoadDataset(const std::string& path,
                                                       Ledger* ledger,
                                                       double* load_s,
                                                       double* bytes);

/// BuildUdaGraph under a core span; adds its wall time to *build_s.
dehealth::UdaGraph BuildUda(const dehealth::ForumDataset& dataset,
                            Ledger* ledger, double* build_s);

/// Records io.load_s and io.load_mb_per_s for one set-up's loads.
void RecordLoad(Ledger* ledger, double load_s, double bytes);

/// Share of users whose prediction is their true auxiliary identity.
double Accuracy(const std::vector<int>& predictions,
                const std::vector<int>& truth);

/// Direct calls into the text, stylo, graph, core and index entry points on
/// one workload's inputs, recording the per-layer metrics of those layers
/// that the workload's own traffic did not already record.
/// `similarity` is the workload's own scoring configuration; its
/// num_threads is the probes' thread count.
dehealth::Status ProbeBatchLayers(const dehealth::ForumDataset& anonymized,
                                  const dehealth::ForumDataset& auxiliary,
                                  const dehealth::UdaGraph& anonymized_uda,
                                  const dehealth::UdaGraph& auxiliary_uda,
                                  const dehealth::SimilarityConfig& similarity,
                                  int top_k, Ledger* ledger);

/// Short serve-ingest / router-topk sessions on a small forum cut from the
/// run's seed, for traced runs whose own traffic does not reach the serve,
/// ingest or shard layers. They record only metrics not yet recorded.
dehealth::Status ProbeServingLayers(const RunOptions& options, Ledger* ledger,
                                    bool ingest, bool shard);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
