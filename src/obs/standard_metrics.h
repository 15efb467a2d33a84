#ifndef DEHEALTH_OBS_STANDARD_METRICS_H_
#define DEHEALTH_OBS_STANDARD_METRICS_H_

#include <vector>

#include "obs/metrics.h"

namespace dehealth::obs {

// Every metric the library can register, declared once. Instrumentation
// sites reach them through the typed accessor structs below (bound to
// Registry::Global()); ServeMetrics registers the serve defs into its own
// (possibly per-server) registry. docs/METRICS.md documents exactly this
// set, and the docs-consistency test (tests/obs/docs_test.cc) fails the
// build the moment the two drift. Add a metric => add it here AND to the
// table in docs/METRICS.md.

// ---- core: UDA graph build, phase 1a/1b/1c, phase 2 ----
extern const MetricDef kCoreUdaBuilds;
extern const MetricDef kCoreUdaPosts;
extern const MetricDef kCoreSimilarityMatrices;
extern const MetricDef kCoreSimilarityRows;
extern const MetricDef kCoreTopKDenseRows;
extern const MetricDef kCoreFilterRuns;
extern const MetricDef kCoreFilterRejected;
extern const MetricDef kCoreRefinedUsers;
extern const MetricDef kCoreSimdKernel;
extern const MetricDef kCoreScoreBlockSize;

// ---- index: DHIX snapshot lifecycle + bound-pruned Top-K retrieval ----
extern const MetricDef kIndexTopKQueries;
extern const MetricDef kIndexExactEvals;
extern const MetricDef kIndexBoundPruned;
extern const MetricDef kIndexSnapshotLoads;
extern const MetricDef kIndexSnapshotRebuilds;
extern const MetricDef kIndexDenseFallbacks;
extern const MetricDef kIndexDenseScans;

// ---- shard: scatter-gather over the partitioned auxiliary universe ----
extern const MetricDef kShardScatterRpcs;
extern const MetricDef kShardScatterFailures;
extern const MetricDef kShardPartialAnswers;
extern const MetricDef kShardMergeMicros;
extern const MetricDef kShardBackendLatency;
extern const MetricDef kShardSnapshotQuarantines;

// ---- replica: health-checked failover inside replicated shard groups ----
extern const MetricDef kReplicaFailovers;
extern const MetricDef kReplicaEjections;
extern const MetricDef kReplicaReadmissions;
extern const MetricDef kReplicaProbes;
extern const MetricDef kReplicaProbeFailures;
extern const MetricDef kReplicaHedges;
extern const MetricDef kReplicaHedgeWins;
extern const MetricDef kReplicaHealthyBackends;
extern const MetricDef kReplicaRolloutSeals;

// ---- engines: pluggable phase-1 attack engines (blind, community) ----
extern const MetricDef kEngineMatrixBuilds;
extern const MetricDef kEngineActive;
extern const MetricDef kEngineBlindRounds;
extern const MetricDef kEngineCommunityMatched;

// ---- job: DHJB checkpoint/resume shard lifecycle ----
extern const MetricDef kJobShardsLoaded;
extern const MetricDef kJobShardsComputed;
extern const MetricDef kJobQuarantines;

// ---- ingest: DHSG delta segments + epoch swaps ----
extern const MetricDef kIngestSegmentsLoaded;
extern const MetricDef kIngestPostsApplied;
extern const MetricDef kIngestEpochSeals;
extern const MetricDef kIngestEpochSeq;
extern const MetricDef kIngestStagedSegments;
extern const MetricDef kIngestEpochBuildMicros;
extern const MetricDef kIngestQuarantines;
extern const MetricDef kIngestCompactions;

// ---- serve: request lifecycle of the query service ----
extern const MetricDef kServeRequests;
extern const MetricDef kServeQueries;
extern const MetricDef kServeBatches;
extern const MetricDef kServeBatchSizeMax;
extern const MetricDef kServeOverloaded;
extern const MetricDef kServeDeadlineExpired;
extern const MetricDef kServeQueueDepth;
extern const MetricDef kServeLatency;
extern const MetricDef kServeQueueWait;
extern const MetricDef kServeEngineTime;
extern const MetricDef kServeBatchSize;

/// All of the above, for exhaustive registration (docs test, exporters).
const std::vector<const MetricDef*>& AllMetricDefs();

/// Core-pipeline metrics bound to Registry::Global(); cheap to call (one
/// initialization, then a reference return).
struct CoreMetrics {
  Counter* uda_builds;
  Counter* uda_posts;
  Counter* similarity_matrices;
  Counter* similarity_rows;
  Counter* topk_dense_rows;
  Counter* filter_runs;
  Counter* filter_rejected;
  Counter* refined_users;
  Gauge* simd_kernel;
  Histogram* score_block_size;
};
CoreMetrics& GetCoreMetrics();

struct IndexMetrics {
  Counter* topk_queries;
  Counter* exact_evals;
  Counter* bound_pruned;
  Counter* snapshot_loads;
  Counter* snapshot_rebuilds;
  Counter* dense_fallbacks;
  Counter* dense_scans;
};
IndexMetrics& GetIndexMetrics();

/// Shard scatter-gather metrics. Router processes usually bind these to
/// their server registry via BindShardMetrics(registry); a slice backend's
/// snapshot quarantines (LoadOrBuildShardIndex) use the Registry::Global()
/// binding.
struct ShardMetrics {
  Counter* scatter_rpcs;
  Counter* scatter_failures;
  Counter* partial_answers;
  Histogram* merge_micros;
  Histogram* backend_latency;
  Counter* snapshot_quarantines;
};
ShardMetrics& GetShardMetrics();
/// A ShardMetrics bound to an explicit registry (no caching — call once
/// and keep the struct).
ShardMetrics BindShardMetrics(Registry& registry);

/// Replicated-shard-group metrics: failover, health ejection/readmission,
/// probing, hedged reads, and the rolling fleet seal. Routers bind these
/// to their server registry like ShardMetrics; the rollout driver uses
/// the Registry::Global() binding.
struct ReplicaMetrics {
  Counter* failovers;
  Counter* ejections;
  Counter* readmissions;
  Counter* probes;
  Counter* probe_failures;
  Counter* hedges;
  Counter* hedge_wins;
  Gauge* healthy_backends;
  Counter* rollout_seals;
};
ReplicaMetrics& GetReplicaMetrics();
ReplicaMetrics BindReplicaMetrics(Registry& registry);

/// Pluggable-engine metrics (src/engines/): matrix builds, which engine
/// last ran, and per-engine progress counters.
struct EngineMetrics {
  Counter* matrix_builds;
  Gauge* active_engine;
  Counter* blind_rounds;
  Counter* community_matched;
};
EngineMetrics& GetEngineMetrics();

struct JobMetrics {
  Counter* shards_loaded;
  Counter* shards_computed;
  Counter* quarantines;
};
JobMetrics& GetJobMetrics();

/// Streaming-ingestion metrics. The epoch gauges (epoch_seq,
/// staged_segments) are what the router re-exports per backend on its
/// kMetrics scrape.
struct IngestMetrics {
  Counter* segments_loaded;
  Counter* posts_applied;
  Counter* epoch_seals;
  Gauge* epoch_seq;
  Gauge* staged_segments;
  Histogram* epoch_build_micros;
  Counter* quarantines;
  Counter* compactions;
};
IngestMetrics& GetIngestMetrics();

/// Registers every standard metric into `registry` (idempotent). The docs
/// test uses this to enumerate the full exported surface; a process does
/// the same implicitly as subsystems run.
void RegisterAllMetrics(Registry& registry);

}  // namespace dehealth::obs

#endif  // DEHEALTH_OBS_STANDARD_METRICS_H_
