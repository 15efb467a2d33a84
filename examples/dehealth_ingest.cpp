// dehealth_ingest: producer-side tooling for streaming ingestion. Cuts,
// compacts, inspects, and verifies DHSG delta segments — the append-only
// units a `dehealth_serve --ingest` server stages (load-segment) and seals
// into new epochs (seal-epoch). See DESIGN.md "Streaming ingestion".
//
//   dehealth_ingest segment --base base.jsonl --tail tail.jsonl
//                           --out delta.dhsg [--segments s1,s2,...]
//                           [--tail-offset N]
//                           [--shard-index I --shard-count C]
//   dehealth_ingest compact --segments s1,s2,... --out merged.dhsg
//   dehealth_ingest info    --segments s1[,s2,...]
//   dehealth_ingest verify  --base base.jsonl --segments s1[,s2,...]
//   dehealth_ingest rollout --backends host:port[|host:port...],...
//                           [--segments s1,s2,...] [--no-seal]
//                           [--allow-epoch-skew] [--retries 3]
//
// `segment` replays the known history (--base, then the --segments chain
// in order), then reads the posts of --tail beyond what that history
// covers (override with --tail-offset) and cuts them into one new segment,
// written atomically with read-back verification (a corrupt write is
// quarantined to <out>.quarantined and retried). `compact` merges a chain
// LSM-style into one segment whose application is bitwise-equivalent.
// `verify` proves a chain applies cleanly to a base — every fingerprint
// checked — without writing anything. All I/O honors --fault-spec.
//
// `rollout` drives a fleet-wide rolling ingestion (src/shard/rollout.h):
// group by group, replica by replica (same '|'-within-',' spec as
// dehealth_router --backends), it pushes every --segments path via
// load-segment and seals, verifying after each group that all its
// replicas converged to one (epoch_seq, fingerprint) before moving on —
// so a serving router never sees more than one group mid-swap. --no-seal
// stages without sealing; --allow-epoch-skew downgrades divergence to a
// warning. Segment paths are on the BACKENDS' filesystem.

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/flag_catalog.h"
#include "common/flags.h"
#include "ingest/segment.h"
#include "ingest/state.h"
#include "io/forum_io.h"
#include "shard/rollout.h"
#include "shard/router.h"

using namespace dehealth;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// "--segments a.dhsg,b.dhsg" → {"a.dhsg", "b.dhsg"}.
StatusOr<std::vector<std::string>> ParseSegmentPaths(
    const std::string& spec) {
  std::vector<std::string> paths;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty())
      return Status::InvalidArgument("--segments: empty path in \"" + spec +
                                     "\"");
    paths.push_back(entry);
  }
  return paths;
}

StatusOr<std::vector<ingest::DeltaSegment>> LoadChain(
    const std::vector<std::string>& paths) {
  std::vector<ingest::DeltaSegment> chain;
  chain.reserve(paths.size());
  for (const std::string& path : paths) {
    StatusOr<ingest::DeltaSegment> segment = ingest::LoadSegmentFile(path);
    if (!segment.ok())
      return Status(segment.status().code(),
                    path + ": " + segment.status().message());
    chain.push_back(std::move(segment).value());
  }
  return chain;
}

void PrintSegmentLine(const std::string& path,
                      const ingest::DeltaSegment& segment) {
  std::printf("%s: %zu posts, base %llu posts, universe -> %d users / %d "
              "threads, shard %u/%u, parent %016llx -> result %016llx\n",
              path.c_str(), segment.posts.size(),
              static_cast<unsigned long long>(segment.base_posts),
              segment.num_users_after, segment.num_threads_after,
              segment.shard_index, segment.shard_count,
              static_cast<unsigned long long>(segment.parent_fingerprint),
              static_cast<unsigned long long>(segment.result_fingerprint));
}

/// Base dataset + prior chain → the state the next segment applies to.
StatusOr<ingest::IngestState> ReplayHistory(
    const std::string& base_path,
    const std::vector<ingest::DeltaSegment>& chain) {
  StatusOr<ForumDataset> base = LoadForumDataset(base_path);
  if (!base.ok()) return base.status();
  ingest::IngestState state =
      ingest::IngestState::FromDataset(std::move(base).value());
  for (size_t i = 0; i < chain.size(); ++i) {
    Status applied = state.Apply(chain[i]);
    if (!applied.ok())
      return Status(applied.code(), "--segments entry " + std::to_string(i) +
                                        ": " + applied.message());
  }
  return state;
}

int CmdSegment(const FlagParser& flags) {
  const std::string base_path = flags.Get("base");
  const std::string tail_path = flags.Get("tail");
  const std::string out_path = flags.Get("out");
  if (base_path.empty() || tail_path.empty() || out_path.empty())
    return Fail("segment requires --base, --tail and --out");
  auto shard_index = flags.GetInt("shard-index", 0);
  if (!shard_index.ok()) return Fail(shard_index.status().ToString());
  auto shard_count = flags.GetInt("shard-count", 1);
  if (!shard_count.ok()) return Fail(shard_count.status().ToString());
  if (*shard_count < 1 || *shard_index < 0 || *shard_index >= *shard_count)
    return Fail("--shard-index/--shard-count must satisfy 0 <= index < "
                "count");

  std::vector<ingest::DeltaSegment> chain;
  const std::string segments_spec = flags.Get("segments");
  if (!segments_spec.empty()) {
    auto paths = ParseSegmentPaths(segments_spec);
    if (!paths.ok()) return Fail(paths.status().ToString());
    auto loaded = LoadChain(*paths);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    chain = std::move(loaded).value();
  }
  auto state = ReplayHistory(base_path, chain);
  if (!state.ok()) return Fail(state.status().ToString());

  // The tail file is the whole append-only log; history covers its prefix.
  auto offset =
      flags.GetInt("tail-offset", static_cast<int>(state->posts()));
  if (!offset.ok()) return Fail(offset.status().ToString());
  if (*offset < 0) return Fail("--tail-offset must be >= 0");
  auto tail = LoadTailPosts(tail_path, static_cast<size_t>(*offset));
  if (!tail.ok()) return Fail(tail.status().ToString());
  if (tail->empty())
    return Fail("no new posts: " + tail_path + " has nothing beyond post " +
                std::to_string(*offset));

  auto segment = ingest::CutSegment(
      &*state, *tail, /*num_users_after=*/0, /*num_threads_after=*/0,
      static_cast<uint32_t>(*shard_index),
      static_cast<uint32_t>(*shard_count));
  if (!segment.ok()) return Fail(segment.status().ToString());
  Status written = ingest::WriteSegmentVerified(*segment, out_path);
  if (!written.ok()) return Fail(written.ToString());
  PrintSegmentLine(out_path, *segment);
  return 0;
}

int CmdCompact(const FlagParser& flags) {
  const std::string segments_spec = flags.Get("segments");
  const std::string out_path = flags.Get("out");
  if (segments_spec.empty() || out_path.empty())
    return Fail("compact requires --segments and --out");
  auto paths = ParseSegmentPaths(segments_spec);
  if (!paths.ok()) return Fail(paths.status().ToString());
  auto chain = LoadChain(*paths);
  if (!chain.ok()) return Fail(chain.status().ToString());
  auto merged = ingest::CompactSegments(*chain);
  if (!merged.ok()) return Fail(merged.status().ToString());
  Status written = ingest::WriteSegmentVerified(*merged, out_path);
  if (!written.ok()) return Fail(written.ToString());
  PrintSegmentLine(out_path, *merged);
  return 0;
}

int CmdInfo(const FlagParser& flags) {
  const std::string segments_spec = flags.Get("segments");
  if (segments_spec.empty()) return Fail("info requires --segments");
  auto paths = ParseSegmentPaths(segments_spec);
  if (!paths.ok()) return Fail(paths.status().ToString());
  for (const std::string& path : *paths) {
    auto segment = ingest::LoadSegmentFile(path);
    if (!segment.ok())
      return Fail(path + ": " + std::string(segment.status().message()));
    PrintSegmentLine(path, *segment);
  }
  return 0;
}

int CmdVerify(const FlagParser& flags) {
  const std::string base_path = flags.Get("base");
  const std::string segments_spec = flags.Get("segments");
  if (base_path.empty() || segments_spec.empty())
    return Fail("verify requires --base and --segments");
  auto paths = ParseSegmentPaths(segments_spec);
  if (!paths.ok()) return Fail(paths.status().ToString());
  auto chain = LoadChain(*paths);
  if (!chain.ok()) return Fail(chain.status().ToString());
  auto state = ReplayHistory(base_path, *chain);
  if (!state.ok()) return Fail(state.status().ToString());
  std::printf("verified: %zu segments apply cleanly, %llu posts, "
              "fingerprint %016llx\n",
              chain->size(), static_cast<unsigned long long>(state->posts()),
              static_cast<unsigned long long>(state->fingerprint()));
  return 0;
}

int CmdRollout(const FlagParser& flags) {
  const std::string backend_spec = flags.Get("backends");
  if (backend_spec.empty())
    return Fail("rollout requires --backends host:port[|host:port...],...");
  auto groups = ParseBackendGroups(backend_spec);
  if (!groups.ok()) return Fail(groups.status().ToString());

  RolloutOptions options;
  const std::string segments_spec = flags.Get("segments");
  if (!segments_spec.empty()) {
    auto paths = ParseSegmentPaths(segments_spec);
    if (!paths.ok()) return Fail(paths.status().ToString());
    options.segments = std::move(paths).value();
  }
  options.seal = !flags.Has("no-seal");
  options.allow_epoch_skew = flags.Has("allow-epoch-skew");
  if (options.segments.empty() && !options.seal)
    return Fail("rollout with --no-seal and no --segments would do nothing");
  auto retries = flags.GetInt("retries", 3);
  if (!retries.ok()) return Fail(retries.status().ToString());
  if (*retries < 1) return Fail("--retries must be >= 1");
  options.retry.max_attempts = *retries;

  auto report = RunRollout(*groups, options);
  if (!report.ok()) return Fail(report.status().ToString());
  for (size_t g = 0; g < report->groups.size(); ++g)
    std::printf("group %zu: %d replicas at epoch %llu, fingerprint "
                "%016llx\n",
                g, report->groups[g].replicas,
                static_cast<unsigned long long>(report->groups[g].epoch_seq),
                static_cast<unsigned long long>(
                    report->groups[g].universe_fingerprint));
  std::printf("rollout complete: %d segment loads, %d seals across %zu "
              "groups\n",
              report->segments_loaded, report->seals,
              report->groups.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dehealth_ingest <segment|compact|info|verify|"
                 "rollout> "
                 "[--base base.jsonl] [--tail tail.jsonl] "
                 "[--tail-offset N] [--segments s1,s2,...] [--out out.dhsg] "
                 "[--shard-index I] [--shard-count C] "
                 "[--backends spec] [--no-seal] [--allow-epoch-skew] "
                 "[--retries N] [--fault-spec spec]\n");
    return 1;
  }
  const std::string command = argv[1];
  const FlagParser flags(argc, argv, 2, AttackBooleanFlags());
  if (Status st = flags.CheckKnown(CatalogFlagNames()); !st.ok())
    return Fail(st.ToString());

  const std::string fault_spec = flags.Get("fault-spec");
  if (!fault_spec.empty()) {
    Status st = FaultInjector::Global().Configure(fault_spec);
    if (!st.ok()) return Fail(st.ToString());
  }

  if (command == "segment") return CmdSegment(flags);
  if (command == "compact") return CmdCompact(flags);
  if (command == "info") return CmdInfo(flags);
  if (command == "verify") return CmdVerify(flags);
  if (command == "rollout") return CmdRollout(flags);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 1;
}
