"""Folds a traced benchmark run into per-layer numbers.

The benchmark harness writes one JSON object per completed span (id, parent,
tid, layer, name, start_s, end_s). This module turns them into a table of
each layer's busy time (wall time during which at least one of its spans
was open), self time (each span's duration minus the part of its interval
that its child spans cover) and span count, and holds the percentile rule
the report follows: a percentile is reported only when at least ten
samples lie beyond it.

    python3 perfbench/summarize.py .bench_build/work/<run>/spans.jsonl
"""

import json
import math
import sys

MIN_SAMPLES_BEYOND = 10
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def load_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= a:
            continue
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Maps span id -> duration minus the interval its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start_s"], span["end_s"]))
    result = {}
    for span in spans:
        lo, hi = span["start_s"], span["end_s"]
        covered = covered_length(children.get(span["id"], []), lo, hi)
        result[span["id"]] = (hi - lo) - covered
    return result


def fold(spans):
    """Per layer: busy seconds, self seconds and span count."""
    selfs = self_times(spans)
    table = {}
    for span in spans:
        row = table.setdefault(span["layer"],
                               {"intervals": [], "self_s": 0.0, "count": 0})
        row["intervals"].append((span["start_s"], span["end_s"]))
        row["self_s"] += selfs[span["id"]]
        row["count"] += 1
    out = {}
    for layer, row in table.items():
        lo = min(a for a, _ in row["intervals"])
        hi = max(b for _, b in row["intervals"])
        out[layer] = {
            "busy_s": covered_length(row["intervals"], lo, hi),
            "self_s": row["self_s"],
            "count": row["count"],
        }
    return out


def samples_beyond(n, q):
    """Samples ranked above the nearest-rank q-th percentile of n."""
    return n - math.ceil(q / 100.0 * n)


def percentile(samples, q):
    """Nearest-rank q-th percentile, or None unless at least ten samples
    lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < MIN_SAMPLES_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def highest_percentile(samples):
    """(q, value) of the highest of PERCENTILES that may be reported."""
    best = None
    for q in PERCENTILES:
        value = percentile(samples, q)
        if value is not None:
            best = (q, value)
    return best


def format_table(table):
    lines = ["%-8s %12s %12s %8s" % ("layer", "busy_s", "self_s", "spans")]
    for layer in sorted(table, key=lambda name: -table[name]["busy_s"]):
        row = table[layer]
        lines.append("%-8s %12.6f %12.6f %8d" %
                     (layer, row["busy_s"], row["self_s"], row["count"]))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: summarize.py SPANS_JSONL\n")
        return 2
    print(format_table(fold(load_spans(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
