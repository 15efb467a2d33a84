// perfbench_harness: runs one benchmark workload and writes its raw report.
//
//   perfbench_harness --workload attack-oneshot --seed 1 --seconds 10
//       --trace 0 --workdir DIR
//
// Writes DIR/report.json (host block, set-up samples, latency samples,
// outcomes, correctness gates, per-layer metrics of a traced run) and, with
// --trace 1, DIR/spans.jsonl. run.py turns these into the benchmark's
// result line. Exits non-zero when a workload fails or a gate does not
// hold, and refuses to run at all from an unoptimized build.
#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/parallel.h"
#include "core/simd_dispatch.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i)
    out += (i ? ", " : "") + JsonNumber(values[i]);
  return out + "]";
}

std::string HostJson(int threads) {
  return "{\"nproc\": " + std::to_string(dehealth::HardwareThreads()) +
         ", \"threads\": " + std::to_string(threads) +
         ", \"cpu_model\": " + JsonString(CpuModel()) + ", \"simd_tier\": " +
         JsonString(dehealth::SimdModeName(
             dehealth::ResolveSimdMode(dehealth::SimdMode::kAuto))) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) + "}";
}

std::string ReportJson(const RunOptions& options, const Report& report,
                       const Ledger& ledger, const std::string& error) {
  std::string values = "{";
  for (const auto& [name, value] : report.values)
    values += std::string(values.size() > 1 ? ", " : "") + JsonString(name) +
              ": {\"value\": " + JsonNumber(value.first) +
              ", \"unit\": " + JsonString(value.second) + "}";
  values += "}";
  std::string samples = "{";
  for (const auto& [name, series] : report.samples)
    samples += std::string(samples.size() > 1 ? ", " : "") + JsonString(name) +
               ": " + Array(series);
  samples += "}";
  std::string gates = "[";
  for (size_t i = 0; i < report.gates.size(); ++i)
    gates += std::string(i ? ", " : "") + "{\"name\": " +
             JsonString(report.gates[i].name) + ", \"ok\": " +
             (report.gates[i].ok ? "true" : "false") + ", \"detail\": " +
             JsonString(report.gates[i].detail) + "}";
  gates += "]";
  const Outcomes& o = report.outcomes;
  return "{\"workload\": " + JsonString(options.workload) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"trace\": " + (options.trace ? "true" : "false") +
         ", \"host\": " + HostJson(options.threads) +
         ", \"error\": " + JsonString(error) +
         ", \"attempted\": " + std::to_string(o.attempted.load()) +
         ", \"failed\": " + std::to_string(o.failed()) +
         ", \"failures\": {\"overloaded\": " + std::to_string(o.overloaded.load()) +
         ", \"timeout\": " + std::to_string(o.timeout.load()) +
         ", \"partial\": " + std::to_string(o.partial.load()) +
         ", \"transport\": " + std::to_string(o.transport.load()) +
         ", \"other\": " + std::to_string(o.other.load()) + "}" +
         ", \"succeeded\": " + std::to_string(report.succeeded) +
         ", \"measured_s\": " + JsonNumber(report.measured_s) +
         ", \"setup_s\": " + Array(report.setup_s) +
         ", \"latency_ms\": " + Array(report.latency_ms) +
         ", \"trace_overhead_ms\": " + JsonNumber(report.trace_overhead_ms) +
         ", \"values\": " + values + ", \"samples\": " + samples +
         ", \"gates\": " + gates + ", \"layers\": " + ledger.MetricsJson() +
         "}\n";
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  return static_cast<bool>(out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench_harness: refusing to report timings from a build "
               "without optimization (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  RunOptions options;
  options.threads = dehealth::HardwareThreads();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value);
    else if (flag == "--trace") options.trace = std::atoi(value) != 0;
    else if (flag == "--workdir") options.workdir = value;
    else return Usage();
  }
  if (options.workload.empty() || options.workdir.empty() ||
      options.seconds <= 0)
    return Usage();

  Report report;
  Ledger ledger(options.trace);
  dehealth::Status status;
  if (options.workload == "attack-oneshot")
    status = RunAttackOneshot(options, &report, &ledger);
  else if (options.workload == "rescore-idf")
    status = RunRescoreIdf(options, &report, &ledger);
  else if (options.workload == "serve-ingest")
    status = RunServeIngest(options, &report, &ledger);
  else if (options.workload == "router-topk")
    status = RunRouterTopK(options, &report, &ledger);
  else
    return Usage();
  if (!status.ok())
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                 status.ToString().c_str());

  const std::string dir = options.workdir;
  if (!WriteFile(dir + "/report.json",
                 ReportJson(options, report, ledger,
                            status.ok() ? "" : status.ToString())) ||
      (options.trace && !WriteFile(dir + "/spans.jsonl", ledger.SpansJsonl()))) {
    std::fprintf(stderr, "cannot write the report under %s\n", dir.c_str());
    return 1;
  }
  return status.ok() && report.all_gates_ok() ? 0 : 1;
}
