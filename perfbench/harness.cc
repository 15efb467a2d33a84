#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "datagen/forum_generator.h"
#include "io/forum_io.h"
#include "obs/standard_metrics.h"

namespace perfbench {

using dehealth::Status;
using dehealth::StatusOr;

namespace {

// The innermost open span of the calling thread, so nested scopes link to
// their parent.
thread_local int current_span = -1;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string JsonString(const std::string& raw) {
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

uint64_t ChecksumCandidates(const dehealth::CandidateSets& sets) {
  uint64_t hash = kFnvOffset;
  for (const std::vector<int>& list : sets) {
    hash = FnvMix(hash, list.size());
    for (int v : list) hash = FnvMix(hash, static_cast<uint64_t>(v));
  }
  return hash;
}

uint64_t ChecksumInts(const std::vector<int>& values) {
  uint64_t hash = FnvMix(kFnvOffset, values.size());
  for (int v : values) hash = FnvMix(hash, static_cast<uint64_t>(v));
  return hash;
}

Ledger::Scope::Scope(Ledger* ledger, const char* layer, const char* name)
    : ledger_(ledger), layer_(layer), name_(name), start_(Clock::now()) {
  if (ledger_ == nullptr || !ledger_->enabled()) return;
  id_ = ledger_->Open();
  parent_ = current_span;
  current_span = id_;
}

Ledger::Scope::~Scope() {
  if (id_ < 0) return;
  current_span = parent_;
  ledger_->Close(id_, layer_, name_, start_, parent_);
}

int Ledger::Open() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Ledger::Close(int id, const char* layer, const char* name,
                   Clock::time_point start, int parent) {
  const Clock::time_point end = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = tids_.emplace(std::this_thread::get_id(),
                                      static_cast<uint32_t>(tids_.size()));
  (void)inserted;
  spans_.push_back(
      {layer, name, std::chrono::duration<double>(start - epoch_).count(),
       std::chrono::duration<double>(end - epoch_).count(), id, parent,
       it->second});
}

void Ledger::Record(const std::string& name, double value,
                    const std::string& unit, const std::string& source) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_.emplace(name, Metric{value, unit, source});
}

bool Ledger::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.count(name) > 0;
}

std::string Ledger::SpansJsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char line[512];
  for (const SpanRecord& span : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\": %d, \"parent\": %d, \"tid\": %u, \"layer\": "
                  "\"%s\", \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f}\n",
                  span.id, span.parent, span.tid, span.layer, span.name,
                  span.start_s, span.end_s);
    out += line;
  }
  return out;
}

std::string Ledger::MetricsJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out += std::string(first ? "" : ", ") + JsonString(name) +
           ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) +
           ", \"source\": " + JsonString(metric.source) + "}";
    first = false;
  }
  return out + "}";
}

IndexCounters IndexCounters::Read() {
  dehealth::obs::IndexMetrics& metrics = dehealth::obs::GetIndexMetrics();
  IndexCounters counters;
  counters.queries = metrics.topk_queries->Value();
  counters.scans = metrics.dense_scans->Value();
  counters.pruned = metrics.bound_pruned->Value();
  counters.evals = metrics.exact_evals->Value();
  return counters;
}

void IndexCounters::RecordDelta(const char* source, Ledger* ledger) const {
  const IndexCounters now = Read();
  const double queries_d = static_cast<double>(now.queries - queries);
  const double pruned_d = static_cast<double>(now.pruned - pruned);
  const double evals_d = static_cast<double>(now.evals - evals);
  if (queries_d > 0)
    ledger->Record("index.dense_scan_share",
                   static_cast<double>(now.scans - scans) / queries_d, "ratio",
                   source);
  if (pruned_d + evals_d > 0)
    ledger->Record("index.prune_ratio", pruned_d / (pruned_d + evals_d),
                   "ratio", source);
}

void Outcomes::RecordFailure(const Status& status) {
  switch (status.code()) {
    case dehealth::StatusCode::kUnavailable:
      if (status.message() == kPartialAnswer)
        ++partial;
      else if (status.message().find("overloaded") != std::string::npos)
        ++overloaded;
      else
        ++transport;
      break;
    case dehealth::StatusCode::kDeadlineExceeded:
      ++timeout;
      break;
    case dehealth::StatusCode::kCancelled:
      ++transport;
      break;
    default:
      ++other;
      break;
  }
}

void Report::AddGate(const std::string& name, bool ok,
                     const std::string& detail) {
  gates.push_back({name, ok, detail});
  if (!ok) std::fprintf(stderr, "gate FAILED: %s: %s\n", name.c_str(),
                        detail.c_str());
}

bool Report::all_gates_ok() const {
  return std::all_of(gates.begin(), gates.end(),
                     [](const Gate& gate) { return gate.ok; });
}

namespace {

// Post budget of a generated forum, per user. WebMdLikeConfig draws post
// counts from a power law with a 2000-post cap, so the heaviest posters
// move a forum's total by over 50% between seeds; trimming them to a
// common cap until the forum fits this budget (below the total of nearly
// every seed) keeps the work of a run steady across seeds while leaving
// the bulk of the distribution — most users under five posts — intact.
constexpr double kPostsPerUser = 3.3;

// Keeps at most `cap` posts per user (their earliest), with `cap` the
// largest value that fits `budget` posts in total.
void TrimToPostBudget(dehealth::ForumDataset* dataset, size_t budget) {
  std::vector<int> counts = dataset->PostCounts();
  const auto kept = [&](int cap) {
    size_t total = 0;
    for (int count : counts) total += static_cast<size_t>(std::min(count, cap));
    return total;
  };
  int cap = *std::max_element(counts.begin(), counts.end());
  if (kept(cap) <= budget) return;
  int lo = 1;  // largest cap known to fit (or the floor)
  while (lo < cap) {
    const int mid = lo + (cap - lo + 1) / 2;
    if (kept(mid) <= budget) lo = mid;
    else cap = mid - 1;
  }
  std::vector<int> seen(counts.size(), 0);
  std::vector<dehealth::Post> posts;
  for (dehealth::Post& post : dataset->posts)
    if (seen[static_cast<size_t>(post.user_id)]++ < lo)
      posts.push_back(std::move(post));
  dataset->posts = std::move(posts);
}

}  // namespace

StatusOr<Inputs> MakeInputs(int users, uint64_t seed, const std::string& dir,
                            const std::string& tag) {
  StatusOr<dehealth::GeneratedForum> forum = dehealth::GenerateForum(
      dehealth::WebMdLikeConfig(users, dehealth::MixSeed(seed, 1)));
  if (!forum.ok()) return forum.status();
  TrimToPostBudget(&forum->dataset,
                   static_cast<size_t>(kPostsPerUser * users));
  StatusOr<dehealth::DaScenario> scenario = dehealth::MakeClosedWorldScenario(
      forum->dataset, 0.5, dehealth::MixSeed(seed, 2));
  if (!scenario.ok()) return scenario.status();
  Inputs inputs;
  inputs.scenario = std::move(scenario).value();
  inputs.anon_path = dir + "/" + tag + "-anonymized.jsonl";
  inputs.aux_path = dir + "/" + tag + "-auxiliary.jsonl";
  DEHEALTH_RETURN_IF_ERROR(
      dehealth::SaveForumDataset(inputs.scenario.anonymized, inputs.anon_path));
  DEHEALTH_RETURN_IF_ERROR(
      dehealth::SaveForumDataset(inputs.scenario.auxiliary, inputs.aux_path));
  return inputs;
}

StatusOr<IngestInputs> MakeIngestInputs(const dehealth::ForumDataset& auxiliary,
                                        double base_fraction, int segments,
                                        const std::string& dir,
                                        const std::string& tag) {
  const size_t total = auxiliary.posts.size();
  const size_t base_posts = static_cast<size_t>(base_fraction * total);
  if (segments < 1 || base_posts == 0 ||
      total - base_posts < static_cast<size_t>(segments))
    return Status::InvalidArgument("forum too small for base + segments");
  IngestInputs out;
  out.base.num_users = auxiliary.num_users;
  out.base.num_threads = auxiliary.num_threads;
  out.base.posts.assign(auxiliary.posts.begin(),
                        auxiliary.posts.begin() + static_cast<long>(base_posts));
  out.base_path = dir + "/" + tag + "-base.jsonl";
  DEHEALTH_RETURN_IF_ERROR(dehealth::SaveForumDataset(out.base, out.base_path));

  out.base_state = std::make_unique<dehealth::ingest::IngestState>(
      dehealth::ingest::IngestState::FromDataset(out.base));
  dehealth::ingest::IngestState producer = *out.base_state;
  const size_t tail = total - base_posts;
  size_t from = base_posts;
  for (int i = 1; i <= segments; ++i) {
    const size_t to = base_posts + tail * static_cast<size_t>(i) /
                                       static_cast<size_t>(segments);
    std::vector<dehealth::Post> posts(
        auxiliary.posts.begin() + static_cast<long>(from),
        auxiliary.posts.begin() + static_cast<long>(to));
    StatusOr<dehealth::ingest::DeltaSegment> segment =
        dehealth::ingest::CutSegment(&producer, posts);
    if (!segment.ok()) return segment.status();
    const std::string path =
        dir + "/" + tag + "-segment-" + std::to_string(i) + ".dhsg";
    DEHEALTH_RETURN_IF_ERROR(dehealth::ingest::SaveSegmentFile(*segment, path));
    out.segment_paths.push_back(path);
    out.segment_posts.push_back(to - from);
    from = to;
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
