// dehealth_router: the scatter-gather head of a sharded De-Health serving
// fleet. Connects to N shard groups of dehealth_serve backends — each
// group started with --shard-index i --shard-count N over the SAME
// auxiliary/anonymized datasets, its replicas bitwise-identical copies —
// validates that the groups form exactly one partition of one universe,
// then serves plain DHQP upstream: Top-K queries fan out to every shard
// group and the per-shard scored heaps merge into answers that are
// bitwise-identical to one unsharded dehealth_serve (see DESIGN.md
// "Sharding"). dehealth_query works against a router unchanged.
//
//   dehealth_router --backends host:port[|host:port...],...
//                   [--require-all-shards] [--allow-epoch-skew] [--retries 3]
//                   [--hedge-ms 0]
//                   [--host 127.0.0.1] [--port 0] [--queue 64] [--batch 16]
//                   [--timeout-ms 0] [--stats-period 0] [--port-file path]
//
// Replication: '|' separates replicas within a shard group, ',' separates
// groups ("a:1|b:1,c:1|d:1" = 2 shards x 2 replicas; a plain PR 7 spec is
// the R=1 case). Each scatter leg walks its group's replicas in
// health-tracked round-robin order and fails over to a sibling before the
// answer ever degrades; a replica that keeps failing is ejected and
// re-admitted by jittered-backoff kShardInfo probes once it answers
// again. --hedge-ms T additionally fires a leg that has not answered
// within T ms at a healthy sibling and takes the first answer (the loser
// is cancelled) — replicas are verified identical, so answers stay
// deterministic.
//
// Degradation: by default a shard group whose every replica stays
// unreachable through failover is dropped from the merge and answers go
// out as PARTIAL frames (clients see answer.partial == true);
// --require-all-shards fails such queries closed with UNAVAILABLE
// instead. Refined/filtered queries are refused (both need
// universe-global state) — run an unsharded dehealth_serve for those.
//
// Streaming ingestion: connect refuses a fleet whose backends report
// different ingest epochs (their sealed segment chains diverge);
// --allow-epoch-skew downgrades that to a warning so queries keep flowing
// through an epoch rollout (see dehealth_ingest rollout for the driver
// that reseals a replicated fleet group-by-group). `metrics` scrapes of
// the router re-export each backend's dehealth_ingest_* series labeled
// {backend="g"} (or {backend="g.r"} for replicated groups).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "common/flag_catalog.h"
#include "common/flags.h"
#include "common/shutdown.h"
#include "io/file_util.h"
#include "obs/metrics.h"
#include "serve/options.h"
#include "serve/server.h"
#include "shard/router.h"

using namespace dehealth;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv, 1, AttackBooleanFlags());
  if (Status st = flags.CheckKnown(CatalogFlagNames()); !st.ok())
    return Fail(st.ToString());

  const std::string backend_spec = flags.Get("backends");
  if (backend_spec.empty())
    return Fail("dehealth_router requires --backends host:port,...");
  auto backends = ParseBackendGroups(backend_spec);
  if (!backends.ok()) return Fail(backends.status().ToString());

  auto server_config = ParseServerFlags(flags);
  if (!server_config.ok()) return Fail(server_config.status().ToString());
  server_config->registry = &obs::Registry::Global();

  auto retries = flags.GetInt("retries", 3);
  if (!retries.ok()) return Fail(retries.status().ToString());
  if (*retries < 1) return Fail("--retries must be >= 1");

  auto hedge_ms = flags.GetInt("hedge-ms", 0);
  if (!hedge_ms.ok()) return Fail(hedge_ms.status().ToString());
  if (*hedge_ms < 0) return Fail("--hedge-ms must be >= 0");

  const std::string fault_spec = flags.Get("fault-spec");
  if (!fault_spec.empty()) {
    Status st = FaultInjector::Global().Configure(fault_spec);
    if (!st.ok()) return Fail(st.ToString());
  }

  RouterOptions options;
  options.retry.max_attempts = *retries;
  options.require_all_shards = flags.Has("require-all-shards");
  options.allow_epoch_skew = flags.Has("allow-epoch-skew");
  options.hedge_ms = *hedge_ms;
  options.registry = server_config->registry;

  InstallShutdownSignalHandlers();
  auto router = RouterHandler::Connect(*backends, options);
  if (!router.ok()) return Fail(router.status().ToString());

  QueryServer server(**router, *server_config);
  Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());

  const std::string port_file = flags.Get("port-file");
  if (!port_file.empty()) {
    Status written = WriteStringToFileAtomic(
        std::to_string(server.port()) + "\n", port_file);
    if (!written.ok()) return Fail(written.ToString());
  }
  std::printf(
      "routing on %s:%d (%d shards, %d backends, %llu auxiliary users, %d "
      "anonymized users, K=%d%s%s)\n",
      server_config->host.c_str(), server.port(),
      (*router)->num_groups(), (*router)->num_backends(),
      static_cast<unsigned long long>((*router)->universe_size()),
      (*router)->num_anonymized(), (*router)->default_top_k(),
      options.require_all_shards ? ", fail-closed" : "",
      options.hedge_ms > 0 ? ", hedged" : "");
  std::fflush(stdout);

  while (!ProcessShutdownRequested() && !server.ShuttingDown())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("draining...\n");
  std::fflush(stdout);
  server.Shutdown();
  server.Wait();
  std::fprintf(stderr, "%s\n", FormatStatsLine(server.Stats()).c_str());
  return 0;
}
