#!/usr/bin/env python3
"""De-Health benchmark: builds the harness from this checkout's sources, runs
one workload, checks its outputs and prints the result.

    python3 perfbench/run.py --workload attack-oneshot --seed 1 \\
        --seconds 25 --trace 0

Workloads: attack-oneshot, rescore-idf, serve-ingest (the ones
BENCHMARK.json lists) and router-topk, which runs by name but is not in the
benchmark (see perfbench/design.json for why each exists, what it should
move and why router-topk is not gated); `--workload all` runs the three
benchmark workloads in turn, each with its own result line.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
is a separate traced run that reports the per-layer metrics, the tracing
overhead and a per-layer busy/self-time table. The last line of standard
output is the JSON result; everything before it is the human-readable
report. Build output and run scratch live under .bench_build/ in the
checkout root; the run's scratch directory is removed afterwards.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import summarize  # noqa: E402

BENCHMARK_WORKLOADS = ("attack-oneshot", "rescore-idf", "serve-ingest")
WORKLOADS = BENCHMARK_WORKLOADS + ("router-topk",)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
HARNESS_TIMEOUT_S = 170

# The workload-specific metrics the report prints by name,
# each with the workloads it is defined on.
NAMED_METRICS = (
    ("setup_s", "s", WORKLOADS),
    ("attack_s", "s", ("attack-oneshot",)),
    ("rescore_s", "s", ("rescore-idf",)),
    ("query_p50_ms", "ms", ("serve-ingest", "router-topk")),
    ("query_p99_ms", "ms", ("serve-ingest", "router-topk")),
    ("qps", "1/s", ("serve-ingest", "router-topk")),
    ("freshness_s", "s", ("serve-ingest",)),
    ("peak_rss_mb", "MB", WORKLOADS),
    ("top10_success", "ratio", WORKLOADS),
    ("refined_accuracy", "ratio", ("attack-oneshot",)),
)

PER_LAYER = (
    "io.load_s", "io.load_mb_per_s",
    "text.tokenize_us_per_post", "text.tokens_per_post",
    "stylo.extract_us_per_post", "stylo.nnz_per_post",
    "graph.correlation_s", "graph.landmarks_s",
    "core.uda_build_s", "core.similarity_prep_s", "core.feature_pack_s",
    "core.score_s", "core.pairs_scored", "core.pairs_per_s_per_core",
    "core.score_bytes_per_pair", "core.select_s", "core.refine_s",
    "core.refine_us_per_user",
    "index.build_s", "index.topk_us_per_row", "index.dense_scan_share",
    "index.prune_ratio",
    "serve.engine_us", "serve.queue_wait_us", "serve.batch_size_mean",
    "serve.wire_us",
    "ingest.segment_load_s", "ingest.apply_us_per_post", "ingest.seal_s",
    "shard.leg_mean_ms", "shard.merge_us", "shard.router_overhead_us",
)


def log(message):
    sys.stderr.write(message + "\n")
    sys.stderr.flush()


def build():
    """Configures (once) and builds the harness; returns False on failure."""
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: library sources not found next to perfbench/")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return os.path.isfile(HARNESS)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(report):
    """The gated end-to-end metrics, defined on every workload."""
    return {
        "setup_s": metric(statistics.median(report["setup_s"]), "s"),
        "latency_p50_ms": metric(statistics.median(report["latency_ms"]),
                                 "ms"),
        "peak_rss_mb": metric(report["values"]["peak_rss_mb"]["value"], "MB"),
    }


def named_report(workload, report):
    """Lines naming every named metric with unit and sample count."""
    latency = report["latency_ms"]
    values = report["values"]
    found = {
        "setup_s": (statistics.median(report["setup_s"]),
                    len(report["setup_s"])),
        "peak_rss_mb": (values["peak_rss_mb"]["value"], 1),
    }
    for name in ("attack_s", "rescore_s", "top10_success",
                 "refined_accuracy"):
        if name in values:
            found[name] = (values[name]["value"], len(latency)
                           if name.endswith("_s") else 1)
    if workload in ("serve-ingest", "router-topk"):
        found["query_p50_ms"] = (summarize.percentile(latency, 50),
                                 len(latency))
        found["query_p99_ms"] = (summarize.percentile(latency, 99),
                                 len(latency))
        found["qps"] = (report["succeeded"] / report["measured_s"],
                        report["succeeded"])
    if "freshness_s" in report["samples"]:
        samples = report["samples"]["freshness_s"]
        found["freshness_s"] = (statistics.median(samples), len(samples))
    lines = []
    for name, unit, workloads in NAMED_METRICS:
        if workload not in workloads:
            lines.append("  %-18s n/a on %s" % (name, workload))
            continue
        value, count = found.get(name, (None, 0))
        if value is None:
            lines.append("  %-18s not reported: fewer than %d samples "
                         "beyond it (n=%d)"
                         % (name, summarize.MIN_SAMPLES_BEYOND, count))
        else:
            lines.append("  %-18s %.6g %s (n=%d)" % (name, value, unit, count))
    best = summarize.highest_percentile(latency)
    if best is not None:
        lines.append("  highest reportable latency percentile: p%g = %.6g ms "
                     "(n=%d)" % (best[0], best[1], len(latency)))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # A SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the build or the harness and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not build():
        return 1
    if args.workload != "all":
        return run_workload(args)
    failures = 0
    for workload in BENCHMARK_WORKLOADS:
        failures += run_workload(
            argparse.Namespace(**dict(vars(args), workload=workload)))
    return 1 if failures else 0


def run_workload(args):
    """Runs one workload in the harness; prints its report and result line."""
    workdir = os.path.join(ROOT, ".bench_build", "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        command = [HARNESS, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", workdir]
        try:
            harness = subprocess.run(command, stdout=sys.stderr,
                                    stderr=sys.stderr,
                                    timeout=HARNESS_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            log("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S)
            return 1
        report_path = os.path.join(workdir, "report.json")
        if not os.path.isfile(report_path):
            log("perfbench: harness wrote no report (exit %d)"
                % harness.returncode)
            return 1
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        table = None
        if args.trace:
            table = summarize.fold(summarize.load_spans(
                os.path.join(workdir, "spans.jsonl")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gates_ok = all(gate["ok"] for gate in report["gates"])
    correct = harness.returncode == 0 and not report["error"] and gates_ok \
        and bool(report["gates"])
    host = report["host"]
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                              args.trace))
    print("host: nproc=%d threads=%d cpu=%s simd=%s compiler=%s build=%s" % (
        host["nproc"], host["threads"], host["cpu_model"], host["simd_tier"],
        host["compiler"], host["build_type"]))
    print("operations: attempted=%d failed=%d %s" % (
        report["attempted"], report["failed"],
        json.dumps(report["failures"], sort_keys=True)))
    for gate in report["gates"]:
        print("gate %-4s %s (%s)" % ("ok" if gate["ok"] else "FAIL",
                                     gate["name"], gate["detail"]))
    if report["error"]:
        print("error: " + report["error"])

    metrics = {}
    if correct and args.trace:
        layers = report["layers"]
        missing = [name for name in PER_LAYER if name not in layers]
        if missing:
            print("per-layer metrics missing: " + ", ".join(missing))
            correct = False
        metrics = {name: metric(layers[name]["value"], layers[name]["unit"])
                   for name in PER_LAYER if name in layers}
        metrics["trace.overhead_ms"] = metric(report["trace_overhead_ms"],
                                              "ms")
        print("per-layer metrics (source: traffic = the workload's own "
              "calls, probe = a direct call outside them; see "
              "perfbench/design.json):")
        for name in PER_LAYER:
            if name in layers:
                print("  %-28s %14.6g %-10s %s" % (
                    name, layers[name]["value"], layers[name]["unit"],
                    layers[name]["source"]))
        print("  %-28s %14.6g ms         traced - untraced" % (
            "trace.overhead_ms", report["trace_overhead_ms"]))
        print("per-layer spans:")
        print(summarize.format_table(table))
    elif correct:
        metrics = end_to_end(report)
        print("end-to-end metrics:")
        for line in named_report(args.workload, report):
            print(line)

    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
