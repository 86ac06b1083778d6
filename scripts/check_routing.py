#!/usr/bin/env python3
"""Schema + invariant checks for BENCH_routing.json (payment-graph routing).

Stdlib only. Validates the report `bench/main.exe` writes:

  1. shape: scale and a non-empty per-workload map where every entry
     carries a ``routing`` block (topology, strategy, max_splits,
     offered/committed value, instance counters) plus the usual load
     report fields;
  2. safety: no workload recorded protocol violations and every ledger
     audit passed (``conservation_ok: true``) — liquidity is consumed
     and swept back, never created;
  3. arithmetic: committed_value <= offered_value, settled instances
     never exceed the paths selected (one instance each), and a payment
     count reconciles with committed + aborted + rejected + stuck;
  4. the headline claim: on the constrained diamond, single-path
     routing strands at least STRAND_PCT% of the offered value while
     multi-path splitting commits strictly more.

Exit 0 when everything holds; a diagnostic and exit 1 otherwise.
"""

import sys

from benchlib import err, finish, load_json

STRAND_PCT = 30

ROUTING_INT_FIELDS = [
    "max_splits",
    "offered_value",
    "committed_value",
    "paths_selected",
    "split_payments",
    "partial_payments",
    "no_route_rejections",
    "instances_committed",
    "instances_settled",
]


def check_workload(name, wl):
    """Validate one workload entry; return its routing block (or None)."""
    if wl.get("conservation_ok") is not True:
        err(f"{name}: ledger audit failed (conservation_ok != true)")
    if wl.get("violated", 0) != 0:
        err(f"{name}: {wl.get('violated')} protocol violations recorded")
    payments = wl.get("payments")
    parts = [wl.get(k, 0) for k in ("committed", "aborted", "rejected", "stuck")]
    if isinstance(payments, int) and payments != sum(parts):
        err(f"{name}: payments {payments} != committed+aborted+rejected+stuck {sum(parts)}")

    routing = wl.get("routing")
    if not isinstance(routing, dict):
        err(f"{name}: routing block missing")
        return None
    topo = routing.get("topology", "")
    if not isinstance(topo, str) or not topo.startswith("graph:"):
        err(f"{name}: topology {topo!r} is not canonical graph:N;... form")
    if routing.get("strategy") not in ("shortest", "round-robin"):
        err(f"{name}: strategy {routing.get('strategy')!r} unknown")
    for k in ROUTING_INT_FIELDS:
        v = routing.get(k)
        if not isinstance(v, int) or v < 0:
            err(f"{name}: routing.{k} must be a non-negative int, got {v!r}")
            return None
    if routing["committed_value"] > routing["offered_value"]:
        err(
            f"{name}: committed_value {routing['committed_value']} exceeds "
            f"offered_value {routing['offered_value']}"
        )
    if routing["instances_settled"] > routing["paths_selected"]:
        err(
            f"{name}: settled instances {routing['instances_settled']} exceed "
            f"admitted {routing['paths_selected']}"
        )
    if routing["instances_committed"] > routing["instances_settled"]:
        err(
            f"{name}: committed instances {routing['instances_committed']} "
            f"exceed settled {routing['instances_settled']}"
        )
    return routing


def check_diamond(workloads):
    """Multi-path must strictly beat single-path on the constrained pair."""
    single = workloads.get("diamond_single", {}).get("routing")
    multi = workloads.get("diamond_multi", {}).get("routing")
    if not single or not multi:
        err("constrained pair diamond_single/diamond_multi missing")
        return
    offered = single["offered_value"]
    if offered < 1 or offered != multi["offered_value"]:
        err(
            f"diamond pair offered values diverge: {offered} vs "
            f"{multi['offered_value']}"
        )
        return
    stranded = offered - single["committed_value"]
    if 100 * stranded < STRAND_PCT * offered:
        err(
            f"diamond_single strands {stranded}/{offered} "
            f"({100 * stranded // offered}%), want >= {STRAND_PCT}%"
        )
    if multi["committed_value"] <= single["committed_value"]:
        err(
            f"diamond_multi committed {multi['committed_value']} does not "
            f"beat single-path {single['committed_value']}"
        )
    if multi["max_splits"] <= single["max_splits"]:
        err(
            f"diamond pair is not a split contrast: max_splits "
            f"{single['max_splits']} vs {multi['max_splits']}"
        )


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_routing.json"
    doc = load_json(path)

    if doc.get("scale") not in ("quick", "full"):
        err(f"scale is {doc.get('scale')!r}, want 'quick' or 'full'")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        err("workloads missing or empty")
        workloads = {}

    for name, wl in sorted(workloads.items()):
        check_workload(name, wl)

    if workloads:
        check_diamond(workloads)

    return finish(ok=f"{path}: routing report OK", prefix="FAIL")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
