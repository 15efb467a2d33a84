// The two serving workloads, both closed loops over loopback DHQP:
//   serve-ingest: 2 clients alternate single-user Refine and Top-K at K=20
//     (a K other than the server's default, so every Top-K is scored, not
//     looked up) against an EpochHandler while 1 writer thread loads DHSG
//     segments on a fixed schedule and seals every few segments;
//   router-topk: 2 clients send Top-K at K=20 for a small batch of users
//     to a RouterHandler that scatters to two shard-slice QueryEngines.
// The same sessions, shrunk, are the serving-layer probes of the batch
// workloads' traced runs.
#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/top_k.h"
#include "ingest/epoch.h"
#include "ingest/segment.h"
#include "obs/metrics.h"
#include "obs/standard_metrics.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "shard/router.h"
#include "workloads.h"

namespace perfbench {

using dehealth::DeHealthConfig;
using dehealth::ForumDataset;
using dehealth::QueryClient;
using dehealth::QueryEngine;
using dehealth::QueryServer;
using dehealth::Status;
using dehealth::StatusOr;
using dehealth::UdaGraph;

namespace {

constexpr int kClients = 2;
constexpr int kQueryK = 20;     // != kDefaultK: Top-K queries are scored
constexpr int kDefaultK = 10;   // the servers' resident K
// Users per router Top-K request: enough scoring per request that the six
// thread hand-offs of two DHQP hops do not dominate its latency (with 4
// users, run-to-run spread on a busy 4-vCPU host was ~3x wider).
constexpr int kRouterBatch = 16;
constexpr int kGateUsers = 64;   // probe users the answer gates compare
constexpr const char* kHost = "127.0.0.1";

struct SessionParams {
  int users = 0;         // forum size before the split
  int setup_reps = 1;
  double seconds = 1.0;
  int segments = 0;      // serve-ingest only
  int seal_every = 1;    // serve-ingest only
  const char* source = "traffic";
  uint64_t seed_stream = 0;  // separates probe forums from the workload's
};

// The measured workloads and the probes that reuse them. serve-ingest
// seals every third of six segments: each seal group holds one segment
// from each of three schedule positions, so the median freshness over the
// six samples is the middle position's, not a mix of two groups.
SessionParams ServeIngestParams(double seconds) {
  return {4000, 2, seconds, 6, 3, "traffic", 0};
}
SessionParams RouterParams(double seconds) {
  return {2000, 3, seconds, 0, 1, "traffic", 0};
}
SessionParams ProbeParams() { return {300, 1, 1.0, 2, 2, "probe", 7}; }

DeHealthConfig ServingConfig(int threads) {
  DeHealthConfig config;
  config.top_k = kDefaultK;
  config.num_threads = threads;
  config.use_index = true;
  config.refined.learner = dehealth::LearnerKind::kNearestCentroid;
  return config;
}

/// The serving configuration's scoring knobs, with the engine's threads.
dehealth::SimilarityConfig SimilarityFor(const DeHealthConfig& config) {
  dehealth::SimilarityConfig similarity = config.similarity;
  similarity.num_threads = config.num_threads;
  return similarity;
}

double HistogramMean(const dehealth::obs::Histogram* histogram) {
  return histogram->Count() == 0
             ? 0.0
             : static_cast<double>(histogram->Sum()) /
                   static_cast<double>(histogram->Count());
}

std::vector<int> GateUsers(int num_users, uint64_t seed) {
  dehealth::Rng rng(dehealth::MixSeed(seed, 31));
  std::vector<int> users;
  for (int i = 0; i < std::min(kGateUsers, num_users); ++i)
    users.push_back(static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(num_users))));
  return users;
}

/// Client-side results of one closed loop.
struct LoopResult {
  std::mutex mutex;  // guards the vectors
  std::vector<double> first_half_ms;
  std::vector<double> second_half_ms;
  double rtt_sum_us = 0.0;
  uint64_t ok = 0;
};

/// One request of a closed loop: returns OK only for a complete answer.
using RequestFn =
    std::function<Status(QueryClient& client, dehealth::Rng& rng, int i)>;

/// Runs kClients closed-loop clients against `port` until `done()` holds.
/// In a traced run, requests started in the second half of the window are
/// spanned; the two halves' medians give the tracing overhead.
void RunClients(int port, uint64_t seed, Clock::time_point start,
                double seconds, const std::function<bool()>& done,
                const RequestFn& request, Report* report, Ledger* ledger,
                LoopResult* result) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<QueryClient> client = QueryClient::Connect(kHost, port);
      if (!client.ok()) {
        ++report->outcomes.attempted;
        report->outcomes.RecordFailure(client.status());
        return;
      }
      dehealth::Rng rng(dehealth::MixSeed(seed, 100 + static_cast<uint64_t>(c)));
      Ledger untraced(false);
      for (int i = 0; !done(); ++i) {
        const bool second_half = SecondsSince(start) >= seconds / 2;
        Ledger* span_ledger = second_half ? ledger : &untraced;
        ++report->outcomes.attempted;
        const Clock::time_point sent = Clock::now();
        Status status;
        {
          Ledger::Scope span(span_ledger, "serve", "client_round_trip");
          status = request(*client, rng, i);
        }
        const double ms = 1000.0 * SecondsSince(sent);
        if (!status.ok()) {
          report->outcomes.RecordFailure(status);
          continue;
        }
        std::lock_guard<std::mutex> lock(result->mutex);
        (second_half ? result->second_half_ms : result->first_half_ms)
            .push_back(ms);
        result->rtt_sum_us += 1000.0 * ms;
        ++result->ok;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

void FinishLoop(LoopResult& loop, double measured_s, Report* report,
                bool trace) {
  report->latency_ms = loop.first_half_ms;
  report->latency_ms.insert(report->latency_ms.end(),
                            loop.second_half_ms.begin(),
                            loop.second_half_ms.end());
  report->measured_s = measured_s;
  report->succeeded = loop.ok;
  if (trace)
    report->trace_overhead_ms =
        Median(loop.second_half_ms) - Median(loop.first_half_ms);
}

void RecordServeMetrics(dehealth::obs::Registry& registry,
                        const LoopResult& loop, const char* source,
                        Ledger* ledger) {
  using namespace dehealth::obs;
  const Histogram* wait = registry.GetHistogram(kServeQueueWait);
  const Histogram* batch = registry.GetHistogram(kServeBatchSize);
  const Histogram* latency = registry.GetHistogram(kServeLatency);
  ledger->Record("serve.queue_wait_us", HistogramMean(wait), "us", source);
  ledger->Record("serve.batch_size_mean", HistogramMean(batch), "count",
                 source);
  if (loop.ok > 0)
    ledger->Record("serve.wire_us",
                   loop.rtt_sum_us / static_cast<double>(loop.ok) -
                       HistogramMean(latency),
                   "us", source);
}

/// Times `calls` direct engine calls, each answering what one client
/// request asks (serve.engine_us is their median).
template <typename Fn>
void RecordEngineUs(int calls, const char* source, Ledger* ledger,
                    const Fn& call) {
  std::vector<double> us;
  for (int i = 0; i < calls; ++i) {
    Ledger::Scope span(ledger, "serve", "engine_direct");
    call(i);
    us.push_back(1e6 * span.Elapsed());
  }
  ledger->Record("serve.engine_us", Median(us), "us", source);
}

bool SameTopK(const StatusOr<dehealth::TopKAnswer>& a,
              const StatusOr<dehealth::TopKAnswer>& b) {
  return a.ok() && b.ok() && !a->partial && !b->partial &&
         a->candidates == b->candidates;
}

bool SameRefined(const StatusOr<dehealth::RefinedAnswer>& a,
                 const StatusOr<dehealth::RefinedAnswer>& b) {
  return a.ok() && b.ok() && a->predictions == b->predictions &&
         a->rejected == b->rejected;
}

struct ServerSet {
  dehealth::obs::Registry registry;
  std::unique_ptr<QueryServer> server;
  void Stop() {
    if (server == nullptr) return;
    server->Shutdown();
    server->Wait();
    server.reset();
  }
  ~ServerSet() { Stop(); }
};

Status StartServer(const dehealth::QueryHandler& handler, ServerSet* set) {
  dehealth::ServerConfig config;
  config.registry = &set->registry;
  set->server = std::make_unique<QueryServer>(handler, config);
  return set->server->Start();
}

// ---------------------------------------------------------------- serve-ingest

Status ServeIngestSession(const RunOptions& options,
                          const SessionParams& params, Report* report,
                          Ledger* ledger) {
  const uint64_t seed = dehealth::MixSeed(options.seed, params.seed_stream);
  StatusOr<Inputs> inputs = MakeInputs(params.users, seed, options.workdir,
                                       std::string("ingest-") + params.source);
  if (!inputs.ok()) return inputs.status();
  StatusOr<IngestInputs> ingest = MakeIngestInputs(
      inputs->scenario.auxiliary, 0.5, params.segments, options.workdir,
      std::string("ingest-") + params.source);
  if (!ingest.ok()) return ingest.status();
  const DeHealthConfig config = ServingConfig(options.threads);

  // Set-up: inputs on disk -> an epoch handler serving on loopback.
  std::unique_ptr<dehealth::ingest::EpochHandler> handler;
  std::unique_ptr<UdaGraph> anonymized;
  ServerSet front;
  std::vector<double> load_times, build_times;
  double bytes = 0.0;
  for (int rep = 0; rep < params.setup_reps; ++rep) {
    front.Stop();
    handler.reset();
    double load_s = 0.0, build_s = 0.0;
    bytes = 0.0;
    const Clock::time_point start = Clock::now();
    StatusOr<ForumDataset> anon =
        LoadDataset(inputs->anon_path, ledger, &load_s, &bytes);
    if (!anon.ok()) return anon.status();
    StatusOr<ForumDataset> base =
        LoadDataset(ingest->base_path, ledger, &load_s, &bytes);
    if (!base.ok()) return base.status();
    anonymized = std::make_unique<UdaGraph>(BuildUda(*anon, ledger, &build_s));
    {
      Ledger::Scope span(ledger, "ingest", "epoch_handler_create");
      StatusOr<std::unique_ptr<dehealth::ingest::EpochHandler>> created =
          dehealth::ingest::EpochHandler::Create(*anonymized,
                                                 std::move(base).value(),
                                                 config);
      if (!created.ok()) return created.status();
      handler = std::move(created).value();
    }
    {
      Ledger::Scope span(ledger, "serve", "server_start");
      DEHEALTH_RETURN_IF_ERROR(StartServer(*handler, &front));
    }
    report->setup_s.push_back(SecondsSince(start));
    load_times.push_back(load_s);
    build_times.push_back(build_s);
  }
  const int num_anonymized = anonymized->num_users();

  // Measured window: clients plus a writer on a fixed schedule.
  const IndexCounters counters = IndexCounters::Read();
  std::atomic<bool> writer_done{false};
  std::vector<double> load_segment_s, seal_s, freshness_s;
  size_t loaded_segments = 0;
  Status writer_status;
  const Clock::time_point start = Clock::now();
  const double period = params.seconds / (params.segments + 1);
  std::thread writer([&] {
    std::vector<Clock::time_point> pending;
    for (size_t i = 0; i < ingest->segment_paths.size(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(period * (i + 1))));
      if (SecondsSince(start) >= params.seconds) break;
      const Clock::time_point load_start = Clock::now();
      ++report->outcomes.attempted;
      {
        Ledger::Scope span(ledger, "ingest", "load_segment");
        writer_status = handler->LoadSegment(ingest->segment_paths[i]);
        load_segment_s.push_back(span.Elapsed());
      }
      if (!writer_status.ok()) break;
      ++loaded_segments;
      pending.push_back(load_start);
      if (loaded_segments % static_cast<size_t>(params.seal_every) != 0 &&
          i + 1 < ingest->segment_paths.size())
        continue;
      ++report->outcomes.attempted;
      {
        Ledger::Scope span(ledger, "ingest", "seal_epoch");
        writer_status = handler->SealEpoch();
        seal_s.push_back(span.Elapsed());
      }
      if (!writer_status.ok()) break;
      for (const Clock::time_point t : pending)
        freshness_s.push_back(SecondsSince(t));
      pending.clear();
    }
    writer_done = true;
  });
  LoopResult loop;
  const uint64_t n = static_cast<uint64_t>(num_anonymized);
  RunClients(
      front.server->port(), seed, start, params.seconds,
      [&] { return writer_done && SecondsSince(start) >= params.seconds; },
      [n](QueryClient& client, dehealth::Rng& rng, int i) -> Status {
        const std::vector<int> users = {static_cast<int>(rng.NextBounded(n))};
        if (i % 2 == 0) {
          StatusOr<dehealth::RefinedAnswer> answer = client.Refine(users);
          if (!answer.ok()) return answer.status();
          return answer->predictions.size() == 1
                     ? Status()
                     : Status::Internal("malformed refine answer");
        }
        StatusOr<dehealth::TopKAnswer> answer = client.TopK(users, kQueryK);
        if (!answer.ok()) return answer.status();
        return answer->candidates.size() == 1
                   ? Status()
                   : Status::Internal("malformed top-k answer");
      },
      report, ledger, &loop);
  writer.join();
  const double measured_s = SecondsSince(start);
  report->values["peak_rss_mb"] = {PeakRssMb(), "MB"};
  if (!writer_status.ok()) {
    report->outcomes.RecordFailure(writer_status);
    return writer_status;
  }
  FinishLoop(loop, measured_s, report, options.trace);
  report->samples["freshness_s"] = freshness_s;
  report->values["freshness_s"] = {Median(freshness_s), "s"};

  // Outside the window: make the final epoch hold every segment, then gate.
  for (size_t i = loaded_segments; i < ingest->segment_paths.size(); ++i)
    DEHEALTH_RETURN_IF_ERROR(handler->LoadSegment(ingest->segment_paths[i]));
  if (handler->staged_segments() > 0)
    DEHEALTH_RETURN_IF_ERROR(handler->SealEpoch());
  const std::vector<int> gate_users = GateUsers(num_anonymized, seed);
  StatusOr<QueryClient> client = QueryClient::Connect(kHost, front.server->port());
  if (!client.ok()) return client.status();
  // The accumulated forum (base + every segment) is the whole auxiliary side.
  const UdaGraph accumulated =
      dehealth::BuildUdaGraph(inputs->scenario.auxiliary);
  StatusOr<std::unique_ptr<QueryEngine>> scratch =
      QueryEngine::Create(*anonymized, accumulated, config);
  if (!scratch.ok()) return scratch.status();
  bool served_equals_direct = true, served_equals_scratch = true;
  for (int u : gate_users) {
    const std::vector<int> users = {u};
    const auto served_topk = client->TopK(users, kQueryK);
    const auto served_refine = client->Refine(users);
    served_equals_direct =
        served_equals_direct && SameTopK(served_topk, handler->TopK(users, kQueryK)) &&
        SameRefined(served_refine, handler->Refine(users));
    served_equals_scratch =
        served_equals_scratch &&
        SameTopK(served_topk, (*scratch)->TopK(users, kQueryK)) &&
        SameRefined(served_refine, (*scratch)->Refine(users));
  }
  report->AddGate(std::string(params.source) + ": served == QueryEngine direct",
                  served_equals_direct, "Top-K at K=20 and Refine, gate users");
  report->AddGate(
      std::string(params.source) + ": final epoch == from-scratch engine",
      served_equals_scratch, "Top-K at K=20 and Refine, gate users");
  std::vector<int> everyone(static_cast<size_t>(num_anonymized));
  for (int u = 0; u < num_anonymized; ++u) everyone[static_cast<size_t>(u)] = u;
  StatusOr<dehealth::TopKAnswer> resident = client->TopK(everyone, 0);
  if (!resident.ok()) return resident.status();
  report->values["top10_success"] = {
      dehealth::TopKSuccessRate(resident->candidates, inputs->scenario.truth),
      "ratio"};

  if (!options.trace) return Status();
  const char* source = params.source;
  const bool traffic = std::string(source) == "traffic";
  if (traffic) {
    RecordLoad(ledger, Median(load_times), bytes);
    ledger->Record("core.uda_build_s", Median(build_times), "s", source);
  }
  RecordServeMetrics(front.registry, loop, source, ledger);
  counters.RecordDelta(source, ledger);
  // Mirrors the clients: Refine and scored Top-K alternate.
  RecordEngineUs(static_cast<int>(gate_users.size()), source, ledger,
                 [&](int i) {
                   const std::vector<int> users = {gate_users[static_cast<size_t>(i)]};
                   if (i % 2 == 0) (void)handler->Refine(users);
                   else (void)handler->TopK(users, kQueryK);
                 });
  ledger->Record("ingest.segment_load_s", Median(load_segment_s), "s", source);
  ledger->Record("ingest.seal_s", Median(seal_s), "s", source);
  // IngestState::Apply alone, over the same segments from the base state.
  dehealth::ingest::IngestState state = *ingest->base_state;
  double apply_s = 0.0;
  size_t posts = 0;
  for (size_t i = 0; i < ingest->segment_paths.size(); ++i) {
    StatusOr<dehealth::ingest::DeltaSegment> segment =
        dehealth::ingest::LoadSegmentFile(ingest->segment_paths[i]);
    if (!segment.ok()) return segment.status();
    Ledger::Scope span(ledger, "ingest", "apply");
    DEHEALTH_RETURN_IF_ERROR(state.Apply(*segment));
    apply_s += span.Elapsed();
    posts += ingest->segment_posts[i];
  }
  ledger->Record("ingest.apply_us_per_post",
                 1e6 * apply_s / static_cast<double>(std::max<size_t>(1, posts)),
                 "us", source);
  if (!traffic) return Status();
  DEHEALTH_RETURN_IF_ERROR(ProbeBatchLayers(
      inputs->scenario.anonymized, inputs->scenario.auxiliary, *anonymized,
      accumulated, SimilarityFor(config), kDefaultK, ledger));
  return ProbeServingLayers(options, ledger, /*ingest=*/false, /*shard=*/true);
}

// ----------------------------------------------------------------- router-topk

Status RouterSession(const RunOptions& options, const SessionParams& params,
                     Report* report, Ledger* ledger) {
  const uint64_t seed = dehealth::MixSeed(options.seed, params.seed_stream);
  StatusOr<Inputs> inputs = MakeInputs(params.users, seed, options.workdir,
                                       std::string("router-") + params.source);
  if (!inputs.ok()) return inputs.status();
  DeHealthConfig config = ServingConfig(options.threads);
  config.shard_count = 2;

  // Set-up: two shard-slice engines, each behind a server, and a router
  // behind a third.
  std::unique_ptr<UdaGraph> anonymized, auxiliary;
  std::unique_ptr<QueryEngine> engines[2];
  ServerSet backends[2];
  dehealth::obs::Registry router_registry;
  std::unique_ptr<dehealth::RouterHandler> router;
  ServerSet front;
  std::vector<double> load_times, build_times;
  double bytes = 0.0;
  for (int rep = 0; rep < params.setup_reps; ++rep) {
    front.Stop();
    router.reset();
    for (int s = 0; s < 2; ++s) {
      backends[s].Stop();
      engines[s].reset();
    }
    double load_s = 0.0, build_s = 0.0;
    bytes = 0.0;
    const Clock::time_point start = Clock::now();
    StatusOr<ForumDataset> anon =
        LoadDataset(inputs->anon_path, ledger, &load_s, &bytes);
    if (!anon.ok()) return anon.status();
    StatusOr<ForumDataset> aux =
        LoadDataset(inputs->aux_path, ledger, &load_s, &bytes);
    if (!aux.ok()) return aux.status();
    anonymized = std::make_unique<UdaGraph>(BuildUda(*anon, ledger, &build_s));
    auxiliary = std::make_unique<UdaGraph>(BuildUda(*aux, ledger, &build_s));
    std::vector<dehealth::BackendAddress> addresses;
    for (int s = 0; s < 2; ++s) {
      DeHealthConfig slice = config;
      slice.shard_index = s;
      {
        Ledger::Scope span(ledger, "serve", "query_engine_create");
        StatusOr<std::unique_ptr<QueryEngine>> engine =
            QueryEngine::Create(*anonymized, *auxiliary, slice);
        if (!engine.ok()) return engine.status();
        engines[s] = std::move(engine).value();
      }
      DEHEALTH_RETURN_IF_ERROR(StartServer(*engines[s], &backends[s]));
      addresses.push_back({kHost, backends[s].server->port()});
    }
    {
      Ledger::Scope span(ledger, "shard", "router_connect");
      dehealth::RouterOptions router_options;
      router_options.registry = &router_registry;
      StatusOr<std::unique_ptr<dehealth::RouterHandler>> connected =
          dehealth::RouterHandler::Connect(addresses, router_options);
      if (!connected.ok()) return connected.status();
      router = std::move(connected).value();
    }
    DEHEALTH_RETURN_IF_ERROR(StartServer(*router, &front));
    report->setup_s.push_back(SecondsSince(start));
    load_times.push_back(load_s);
    build_times.push_back(build_s);
  }
  const int num_anonymized = anonymized->num_users();

  const IndexCounters counters = IndexCounters::Read();
  LoopResult loop;
  const uint64_t n = static_cast<uint64_t>(num_anonymized);
  const Clock::time_point start = Clock::now();
  RunClients(
      front.server->port(), seed, start, params.seconds,
      [&] { return SecondsSince(start) >= params.seconds; },
      [n](QueryClient& client, dehealth::Rng& rng, int) -> Status {
        std::vector<int> users;
        for (int b = 0; b < kRouterBatch; ++b)
          users.push_back(static_cast<int>(rng.NextBounded(n)));
        StatusOr<dehealth::TopKAnswer> answer = client.TopK(users, kQueryK);
        if (!answer.ok()) return answer.status();
        if (answer->partial) return Status::Unavailable(kPartialAnswer);
        return answer->candidates.size() == users.size()
                   ? Status()
                   : Status::Internal("malformed top-k answer");
      },
      report, ledger, &loop);
  const double measured_s = SecondsSince(start);
  report->values["peak_rss_mb"] = {PeakRssMb(), "MB"};
  FinishLoop(loop, measured_s, report, options.trace);

  // Outside the window: merged answers must equal one unsharded engine's.
  DeHealthConfig unsharded_config = config;
  unsharded_config.shard_count = 1;
  StatusOr<std::unique_ptr<QueryEngine>> unsharded =
      QueryEngine::Create(*anonymized, *auxiliary, unsharded_config);
  if (!unsharded.ok()) return unsharded.status();
  StatusOr<QueryClient> client = QueryClient::Connect(kHost, front.server->port());
  if (!client.ok()) return client.status();
  const std::vector<int> gate_users = GateUsers(num_anonymized, seed);
  const bool merged_equals_unsharded =
      SameTopK(client->TopK(gate_users, kQueryK),
               (*unsharded)->TopK(gate_users, kQueryK)) &&
      SameTopK(client->TopK(gate_users, 0), (*unsharded)->TopK(gate_users, 0));
  report->AddGate(std::string(params.source) +
                      ": router Top-K == unsharded engine Top-K",
                  merged_equals_unsharded, "K=20 and default K, gate users");
  std::vector<int> everyone(static_cast<size_t>(num_anonymized));
  for (int u = 0; u < num_anonymized; ++u) everyone[static_cast<size_t>(u)] = u;
  StatusOr<dehealth::TopKAnswer> resident = client->TopK(everyone, 0);
  if (!resident.ok()) return resident.status();
  report->values["top10_success"] = {
      dehealth::TopKSuccessRate(resident->candidates, inputs->scenario.truth),
      "ratio"};

  if (!options.trace) return Status();
  const char* source = params.source;
  const bool traffic = std::string(source) == "traffic";
  if (traffic) {
    RecordLoad(ledger, Median(load_times), bytes);
    ledger->Record("core.uda_build_s", Median(build_times), "s", source);
  }
  RecordServeMetrics(front.registry, loop, source, ledger);
  counters.RecordDelta(source, ledger);
  // One leg of one client request: a slice engine answering a batch.
  RecordEngineUs(static_cast<int>(gate_users.size()), source, ledger,
                 [&](int i) {
                   std::vector<int> batch;
                   for (int b = 0; b < kRouterBatch; ++b)
                     batch.push_back(gate_users[static_cast<size_t>(
                         (i + b) % static_cast<int>(gate_users.size()))]);
                   (void)engines[i % 2]->TopK(batch, kQueryK);
                 });
  const double leg_us = HistogramMean(
      router_registry.GetHistogram(dehealth::obs::kShardBackendLatency));
  ledger->Record("shard.leg_mean_ms", leg_us / 1000.0, "ms", source);
  if (loop.ok > 0)
    ledger->Record("shard.router_overhead_us",
                   loop.rtt_sum_us / static_cast<double>(loop.ok) - leg_us,
                   "us", source);
  // MergeScoredTopK alone, on the legs' own scored answers for the gate
  // users; the merge must reproduce the router's answer.
  std::vector<std::vector<dehealth::ScoredUser>> legs[2];
  for (int s = 0; s < 2; ++s) {
    StatusOr<QueryClient> leg_client =
        QueryClient::Connect(kHost, backends[s].server->port());
    if (!leg_client.ok()) return leg_client.status();
    StatusOr<dehealth::ScoredTopKAnswer> answer =
        leg_client->TopKScored(gate_users, kQueryK);
    if (!answer.ok()) return answer.status();
    if (answer->partial || answer->candidates.size() != gate_users.size())
      return Status::Internal("malformed scored answer from a shard leg");
    legs[s] = answer->candidates;
  }
  StatusOr<dehealth::TopKAnswer> routed = client->TopK(gate_users, kQueryK);
  if (!routed.ok()) return routed.status();
  if (routed->candidates.size() != gate_users.size())
    return Status::Internal("malformed router answer");
  bool merge_matches = true;
  double merge_s = 0.0;
  for (size_t i = 0; i < gate_users.size(); ++i) {
    std::vector<dehealth::ScoredUser> merged;
    {
      Ledger::Scope span(ledger, "shard", "merge_scored_top_k");
      merged = dehealth::MergeScoredTopK({legs[0][i], legs[1][i]}, kQueryK);
      merge_s += span.Elapsed();
    }
    std::vector<int> ids;
    for (const dehealth::ScoredUser& user : merged) ids.push_back(user.user);
    merge_matches = merge_matches && ids == routed->candidates[i];
  }
  report->AddGate(std::string(params.source) +
                      ": MergeScoredTopK of the legs == router answer",
                  merge_matches, "gate users, K=20");
  ledger->Record("shard.merge_us",
                 1e6 * merge_s / static_cast<double>(gate_users.size()), "us",
                 source);
  if (!traffic) return Status();
  DEHEALTH_RETURN_IF_ERROR(ProbeBatchLayers(
      inputs->scenario.anonymized, inputs->scenario.auxiliary, *anonymized,
      *auxiliary, SimilarityFor(config), kDefaultK, ledger));
  return ProbeServingLayers(options, ledger, /*ingest=*/true, /*shard=*/false);
}

}  // namespace

Status RunServeIngest(const RunOptions& options, Report* report,
                      Ledger* ledger) {
  return ServeIngestSession(options, ServeIngestParams(options.seconds),
                            report, ledger);
}

Status RunRouterTopK(const RunOptions& options, Report* report,
                     Ledger* ledger) {
  return RouterSession(options, RouterParams(options.seconds), report, ledger);
}

Status ProbeServingLayers(const RunOptions& options, Ledger* ledger,
                          bool ingest, bool shard) {
  // The probe sessions' own outcomes and gates are checked here; their
  // timings reach the report only as per-layer metrics.
  for (int which = 0; which < 2; ++which) {
    if ((which == 0 && !ingest) || (which == 1 && !shard)) continue;
    Report probe_report;
    Status status = which == 0 ? ServeIngestSession(options, ProbeParams(),
                                                    &probe_report, ledger)
                               : RouterSession(options, ProbeParams(),
                                               &probe_report, ledger);
    DEHEALTH_RETURN_IF_ERROR(status);
    if (!probe_report.all_gates_ok() || probe_report.outcomes.failed() > 0)
      return Status::Internal("serving-layer probe failed its gates");
  }
  return Status();
}

}  // namespace perfbench
