// dehealth_query: command-line client for a running dehealth_serve.
//
//   dehealth_query topk     --port P [--users 0,1,2|all] [--k N]
//   dehealth_query refined  --port P [--users 0,1,2|all] [--timeout-ms T]
//   dehealth_query filtered --port P [--users 0,1,2|all]
//   dehealth_query stats    --port P
//   dehealth_query metrics  --port P [--out metrics.prom]
//   dehealth_query dump     --port P [--out predictions.csv]
//   dehealth_query load-segment --port P --segment delta.dhsg
//   dehealth_query seal-epoch   --port P
//   dehealth_query shutdown --port P
//
// --retries N (default 1 = fail fast) retries transient failures —
// connection refused/reset, server overload — up to N total attempts with
// jittered exponential backoff (see serve/client.h RetryPolicy).
//
// `dump` fetches Top-K candidates and refined predictions for every
// anonymized user and writes the same "anon_id,prediction,top_candidates"
// CSV as `dehealth_cli attack --out` — diffing the two is the end-to-end
// proof that the service answers bitwise-identically to the one-shot run.
//
// `load-segment` / `seal-epoch` drive a `dehealth_serve --ingest` server:
// stage a DHSG delta (--segment names a path on the SERVER's filesystem)
// and swap the next epoch in. Both print the server's post-op epoch line.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flag_catalog.h"
#include "common/flags.h"
#include "serve/client.h"
#include "serve/metrics.h"

using namespace dehealth;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// "--users 3,1,4" → {3,1,4}; "--users all" → {0..n-1} (n from the
/// server's stats). Strict like every numeric flag: garbage fails loudly.
StatusOr<std::vector<int>> ParseUsers(const std::string& spec,
                                      QueryClient& client) {
  std::vector<int> users;
  if (spec == "all") {
    StatusOr<ServerStatsSnapshot> stats = client.Stats();
    if (!stats.ok()) return stats.status();
    users.resize(static_cast<size_t>(stats->num_anonymized));
    for (size_t i = 0; i < users.size(); ++i)
      users[i] = static_cast<int>(i);
    return users;
  }
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string token =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || errno != 0)
      return Status::InvalidArgument("--users expects ids like 0,5,12 or "
                                     "'all', got '" +
                                     token + "'");
    users.push_back(static_cast<int>(value));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return users;
}

void PrintCandidateLine(int user, const std::vector<int>& candidates,
                        bool rejected, bool show_rejected) {
  std::printf("%d:", user);
  if (show_rejected && rejected) std::printf(" [rejected]");
  for (int c : candidates) std::printf(" %d", c);
  std::printf("\n");
}

int CmdDump(QueryClient& client, const std::string& out_path) {
  StatusOr<ServerStatsSnapshot> stats = client.Stats();
  if (!stats.ok()) return Fail(stats.status().ToString());
  std::vector<int> users(static_cast<size_t>(stats->num_anonymized));
  for (size_t i = 0; i < users.size(); ++i) users[i] = static_cast<int>(i);

  StatusOr<TopKAnswer> top_k = client.TopK(users);
  if (!top_k.ok()) return Fail(top_k.status().ToString());
  StatusOr<RefinedAnswer> refined = client.Refine(users);
  if (!refined.ok()) return Fail(refined.status().ToString());

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) return Fail("cannot open for writing: " + out_path);
  }
  std::ostream& csv = out_path.empty()
                          ? static_cast<std::ostream&>(std::cout)
                          : file;
  // Same shape as `dehealth_cli attack --out` so the two diff cleanly.
  csv << "anon_id,prediction,top_candidates\n";
  for (size_t u = 0; u < users.size(); ++u) {
    csv << u << "," << refined->predictions[u] << ",\"";
    const std::vector<int>& c = top_k->candidates[u];
    for (size_t i = 0; i < c.size(); ++i) csv << (i ? " " : "") << c[i];
    csv << "\"\n";
  }
  if (!out_path.empty())
    std::printf("wrote %zu predictions to %s\n", users.size(),
                out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dehealth_query "
                 "<topk|refined|filtered|stats|metrics|dump|load-segment|"
                 "seal-epoch|shutdown> "
                 "--port P "
                 "[--host H] [--users 0,1,2|all] [--k N] [--timeout-ms T] "
                 "[--out file] [--segment delta.dhsg]\n");
    return 1;
  }
  const std::string command = argv[1];
  const FlagParser flags(argc, argv, 2);
  if (Status st = flags.CheckKnown(CatalogFlagNames()); !st.ok())
    return Fail(st.ToString());

  auto port_or = flags.GetInt("port", 0);
  if (!port_or.ok()) return Fail(port_or.status().ToString());
  if (*port_or < 1) return Fail("dehealth_query requires --port");
  auto k_or = flags.GetInt("k", 0);
  if (!k_or.ok()) return Fail(k_or.status().ToString());
  auto timeout_or = flags.GetDouble("timeout-ms", 0.0);
  if (!timeout_or.ok()) return Fail(timeout_or.status().ToString());
  auto retries_or = flags.GetInt("retries", 1);
  if (!retries_or.ok()) return Fail(retries_or.status().ToString());
  if (*retries_or < 1) return Fail("--retries must be >= 1");
  RetryPolicy retry;
  retry.max_attempts = *retries_or;

  auto client = QueryClient::Connect(flags.Get("host", "127.0.0.1"),
                                     *port_or, retry);
  if (!client.ok()) return Fail(client.status().ToString());

  if (command == "stats") {
    StatusOr<ServerStatsSnapshot> stats = client->Stats();
    if (!stats.ok()) return Fail(stats.status().ToString());
    // Same renderer as the server's periodic stderr line (one source of
    // truth — serve/metrics.h), plus the dataset fields only kStats knows.
    std::printf("%s\n", FormatStatsLine(*stats).c_str());
    std::printf("dataset: %llu anonymized users, K=%llu\n",
                static_cast<unsigned long long>(stats->num_anonymized),
                static_cast<unsigned long long>(stats->default_top_k));
    return 0;
  }
  if (command == "metrics") {
    StatusOr<std::string> text = client->Metrics();
    if (!text.ok()) return Fail(text.status().ToString());
    const std::string out_path = flags.Get("out");
    if (out_path.empty()) {
      std::fputs(text->c_str(), stdout);
      return 0;
    }
    std::ofstream out(out_path);
    if (!out) return Fail("cannot open for writing: " + out_path);
    out << *text;
    return 0;
  }
  if (command == "load-segment" || command == "seal-epoch") {
    StatusOr<ShardInfoAnswer> info = Status::Internal("unreachable");
    if (command == "load-segment") {
      const std::string segment = flags.Get("segment");
      if (segment.empty())
        return Fail("load-segment requires --segment (a path on the "
                    "SERVER's filesystem)");
      info = client->LoadSegment(segment);
    } else {
      info = client->SealEpoch();
    }
    if (!info.ok()) return Fail(info.status().ToString());
    std::printf("epoch: seq=%llu staged=%llu universe=%llu "
                "fingerprint=%016llx\n",
                static_cast<unsigned long long>(info->epoch_seq),
                static_cast<unsigned long long>(info->staged_segments),
                static_cast<unsigned long long>(info->shard_total),
                static_cast<unsigned long long>(info->universe_fingerprint));
    return 0;
  }
  if (command == "shutdown") {
    Status st = client->RequestShutdown();
    if (!st.ok()) return Fail(st.ToString());
    std::printf("server acknowledged shutdown\n");
    return 0;
  }
  if (command == "dump") return CmdDump(*client, flags.Get("out"));

  auto users = ParseUsers(flags.Get("users", "all"), *client);
  if (!users.ok()) return Fail(users.status().ToString());

  if (command == "topk") {
    StatusOr<TopKAnswer> answer =
        client->TopK(*users, *k_or, *timeout_or);
    if (!answer.ok()) return Fail(answer.status().ToString());
    // Stdout stays byte-identical between full and degraded answers (smoke
    // tests cmp it); the degradation notice goes to stderr.
    if (answer->partial)
      std::fprintf(stderr,
                   "warning: PARTIAL answer — at least one shard was "
                   "unreachable, candidates from its user range are "
                   "missing\n");
    for (size_t i = 0; i < users->size(); ++i)
      PrintCandidateLine((*users)[i], answer->candidates[i], false, false);
    return 0;
  }
  if (command == "refined") {
    StatusOr<RefinedAnswer> answer = client->Refine(*users, *timeout_or);
    if (!answer.ok()) return Fail(answer.status().ToString());
    for (size_t i = 0; i < users->size(); ++i)
      std::printf("%d: %d%s\n", (*users)[i], answer->predictions[i],
                  answer->rejected[i] ? " [rejected]" : "");
    return 0;
  }
  if (command == "filtered") {
    StatusOr<FilteredAnswer> answer =
        client->Filtered(*users, *timeout_or);
    if (!answer.ok()) return Fail(answer.status().ToString());
    for (size_t i = 0; i < users->size(); ++i)
      PrintCandidateLine((*users)[i], answer->candidates[i],
                         answer->rejected[i], true);
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 1;
}
