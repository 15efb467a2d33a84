// Shared plumbing of the benchmark harness: clocks, the span/metric ledger
// of a traced run, the report every workload fills, and the request
// outcome bookkeeping of the closed-loop clients.
//
// Spans are recorded from the benchmark's own files, around calls into the
// library's public entry points — the library's built-in obs::Tracer stays
// off, so an untraced run executes exactly the code a user runs.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/top_k.h"
#include "datagen/split.h"
#include "ingest/segment.h"
#include "ingest/state.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// JSON text of a string (quoted, escaped) and of a number (all digits).
std::string JsonString(const std::string& raw);
std::string JsonNumber(double value);

/// FNV-1a over candidate lists / predictions — the checksums the
/// correctness gates compare.
uint64_t ChecksumCandidates(const dehealth::CandidateSets& sets);
uint64_t ChecksumInts(const std::vector<int>& values);

/// Span and per-layer metric ledger. Disabled ledgers record nothing (the
/// untraced runs); enabled ones keep every span in memory until the run
/// ends, then write them out as JSONL for the summarizer.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span around one call into a layer. Nested scopes on the same
  /// thread become children of the enclosing scope.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened (valid whether or not it records).
    double Elapsed() const { return SecondsSince(start_); }

   private:
    Ledger* ledger_;
    const char* layer_;
    const char* name_;
    Clock::time_point start_;
    int id_ = -1;
    int parent_ = -1;
  };

  /// Records a per-layer metric unless one of that name is already
  /// recorded: the workload's own traffic records first, and a later probe
  /// only fills what the traffic did not reach. `source` says which it was:
  /// "traffic" or "probe" (a direct call into the layer outside the
  /// workload's traffic).
  void Record(const std::string& name, double value, const std::string& unit,
              const std::string& source);
  bool Has(const std::string& name) const;

  std::string SpansJsonl() const;
  std::string MetricsJson() const;

 private:
  struct SpanRecord {
    const char* layer;
    const char* name;
    double start_s;
    double end_s;
    int id;
    int parent;
    uint32_t tid;
  };
  struct Metric {
    double value;
    std::string unit;
    std::string source;
  };

  int Open();
  void Close(int id, const char* layer, const char* name, Clock::time_point start,
             int parent);

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards everything below
  std::vector<SpanRecord> spans_;
  std::map<std::string, Metric> metrics_;
  int next_id_ = 0;
  std::map<std::thread::id, uint32_t> tids_;
};

/// The candidate index's dehealth_index_* counters in the process registry,
/// read before a stretch of work; RecordDelta records the difference as
/// index.dense_scan_share (dense scans / Top-K queries) and
/// index.prune_ratio (pruned / (pruned + exactly scored candidates)).
struct IndexCounters {
  uint64_t queries = 0;
  uint64_t scans = 0;
  uint64_t pruned = 0;
  uint64_t evals = 0;
  static IndexCounters Read();
  void RecordDelta(const char* source, Ledger* ledger) const;
};

/// Message of the status a client loop returns for a router's partial
/// (degraded) answer, so Outcomes can count it apart from transport errors.
inline constexpr const char* kPartialAnswer = "partial answer";

/// Outcome counts of the operations a workload attempted. Anything that
/// did not produce a complete answer is a failure: OVERLOADED, TIMEOUT,
/// a router's partial answer, a transport error, or a library error.
struct Outcomes {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> overloaded{0};
  std::atomic<uint64_t> timeout{0};
  std::atomic<uint64_t> partial{0};
  std::atomic<uint64_t> transport{0};
  std::atomic<uint64_t> other{0};

  uint64_t failed() const {
    return overloaded + timeout + partial + transport + other;
  }
  /// Classifies a failed client/library status.
  void RecordFailure(const dehealth::Status& status);
};

/// What one run reports; main.cc serializes it for run.py.
struct Report {
  std::vector<double> setup_s;     // one sample per set-up repetition
  std::vector<double> latency_ms;  // one sample per successful operation
  double measured_s = 0.0;         // wall time of the measured loop
  uint64_t succeeded = 0;
  /// Named end-to-end scalars with units (attack_s, freshness_s, ...).
  std::map<std::string, std::pair<double, std::string>> values;
  std::map<std::string, std::vector<double>> samples;  // e.g. freshness_s
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Gate> gates;
  Outcomes outcomes;
  double trace_overhead_ms = 0.0;

  void AddGate(const std::string& name, bool ok, const std::string& detail);
  bool all_gates_ok() const;
};

/// The generated inputs of one run: a closed-world DA scenario of a
/// WebMD-like forum, written to JSONL in the work directory.
struct Inputs {
  dehealth::DaScenario scenario;
  std::string anon_path;
  std::string aux_path;
};

/// Generates a `users`-user WebMD-like forum from `seed`, trims it to a
/// post budget (see harness.cc), splits it closed-world 0.5, and writes
/// both sides as JSONL under `dir` with file names prefixed by `tag`.
dehealth::StatusOr<Inputs> MakeInputs(int users, uint64_t seed,
                                      const std::string& dir,
                                      const std::string& tag);

/// Ingest inputs: the auxiliary side cut into a base forum (written as
/// JSONL) plus DHSG segments of held-back posts, cut in order from the base
/// state.
struct IngestInputs {
  std::string base_path;
  dehealth::ForumDataset base;
  std::vector<std::string> segment_paths;
  std::vector<size_t> segment_posts;
  /// The producer's base state (kept for the Apply probe).
  std::unique_ptr<dehealth::ingest::IngestState> base_state;
};

/// Splits `auxiliary` into a base of its first `base_fraction` posts and
/// `segments` DHSG segments over the rest.
dehealth::StatusOr<IngestInputs> MakeIngestInputs(
    const dehealth::ForumDataset& auxiliary, double base_fraction,
    int segments, const std::string& dir, const std::string& tag);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
