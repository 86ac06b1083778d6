#!/usr/bin/env python3
"""Deterministic-count gate over bench/perf results.

Each input file is the last stdout line of one bench/perf run over a
BENCHMARK.json workload,

    bash bench/perf/run.sh --workload W --seed 1 --seconds 5 --trace T

and its name must contain the workload name W (CI writes
perf_untraced_W.json for --trace 0, which carries the end-to-end
figures, and perf_smoke_W.json for --trace 1, which carries the
per-layer ones). The figures below are compared with the committed
baseline scripts/perf_counts.json:

  * exact: simulated counts and latencies, which a fixed workload and
    seed determine — any change at all fails;
  * within +-10%: minor-heap words, deterministic for one build but
    moved by the compiler and by unrelated code. The band is a factor
    of 1.10 in either direction (measured over baseline or baseline
    over measured), so an improvement that is not written back into
    the baseline fails too instead of leaving it stale.

Every run must also report "correct": true, and every baseline workload
and figure must be covered by some input file. Wall-clock figures are
not gated here: bench/perf's paired `--compare` is the view for those.

After a change that moves a figure on purpose, regenerate the baseline
from the same files with

    python3 scripts/check_perf.py --update perf_*.json

Exit 0 when every figure holds; a diagnostic and exit 1 otherwise.
Stdlib only.
"""

import json
import os
import sys

from benchlib import err, errors, finish, load_json

SEED = 1
EXACT = [
    "engine.events_per_op",
    "network.messages_per_op",
    "sim_latency_p50_ticks",
    "sim_latency_p99_ticks",
]
WITHIN = ["engine.dispatch_words_per_event", "alloc_words_per_op"]
BAND = 0.10
HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "perf_counts.json")
WORKLOADS = [w["name"] for w in
             load_json(os.path.join(HERE, "..", "BENCHMARK.json"))["workloads"]]


def workload_of(path):
    name = os.path.basename(path)
    hits = [w for w in WORKLOADS if w in name]
    if len(hits) != 1:
        err(f"{path}: file name must contain exactly one workload of "
            f"{', '.join(WORKLOADS)}")
        return None
    return hits[0]


def read_runs(paths):
    """(workload, {figure: value}) per file; bad files become errors."""
    runs = []
    for path in paths:
        w = workload_of(path)
        doc = load_json(path)
        if doc.get("correct") is not True:
            err(f"{path}: run is not \"correct\": true")
        metrics = doc.get("metrics")
        if w is None:
            continue
        if not isinstance(metrics, dict):
            err(f"{path}: no metrics object")
            continue
        runs.append((w, {k: metrics[k]["value"] for k in EXACT + WITHIN
                         if k in metrics}))
    return runs


def check(runs, baseline):
    seen = set()
    for w, figures in runs:
        base = baseline.get(w, {})
        for k, v in sorted(figures.items()):
            if k not in base:
                continue
            seen.add((w, k))
            b = base[k]
            if k in EXACT and v != b:
                err(f"{w}: {k} is {v}, baseline {b} (must match exactly)")
            elif k in WITHIN and max(v, b) > (1 + BAND) * min(v, b):
                err(f"{w}: {k} is {v:.2f}, {(v / b - 1) * 100:+.1f}% from "
                    f"baseline {b:.2f} (band: a factor of {1 + BAND:.2f} "
                    f"either way)")
    for w in WORKLOADS:
        for k in EXACT + WITHIN:
            if k in baseline.get(w, {}) and (w, k) not in seen:
                err(f"{w}: no input file reports {k}")


def update(runs):
    baseline = {}
    for w, figures in runs:
        baseline.setdefault(w, {}).update(figures)
    missing = [f"{w}.{k}" for w in WORKLOADS for k in EXACT + WITHIN
               if k not in baseline.get(w, {})]
    if missing:
        err(f"inputs lack {', '.join(missing)}; baseline not written")
        return
    with open(BASELINE, "w", encoding="utf-8") as f:
        json.dump({"seed": SEED, "workloads": baseline}, f, indent=2,
                  sort_keys=True)
        f.write("\n")


def main(argv):
    args = argv[1:]
    updating = bool(args) and args[0] == "--update"
    paths = args[1:] if updating else args
    if not paths:
        print(f"usage: {argv[0]} [--update] PERF_JSON...", file=sys.stderr)
        return 2
    runs = read_runs(paths)
    if updating:
        if not errors:
            update(runs)
        return finish(ok=f"{BASELINE}: baseline written from "
                      f"{len(paths)} file(s)")
    check(runs, load_json(BASELINE)["workloads"])
    return finish(ok=f"{len(paths)} perf file(s) match {BASELINE}",
                  prefix="FAIL")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
