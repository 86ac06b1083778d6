#!/usr/bin/env python3
"""Scale gate for `xchain load`: memory follows in-flight payments.

Stdlib only. Takes two load reports of the same workload at two sizes,
the smaller first (CI runs the linear_2k spec at payments=10000 and at
payments=100000):

    xchain load --spec '<spec with payments=10000>' --seed 1 --out s10k.json
    xchain load --spec '<spec with payments=100000>' --seed 1 --out s100k.json
    python3 scripts/check_scale.py s10k.json s100k.json

CI gates the committee_600 spec at 600 and 6,000 payments the same way:
a committee keeps only its undecided slots and the items in flight, and
a cancelled patience timer (100,000 ticks in that spec) leaves the
engine queue at once rather than at its deadline.

and requires:

  1. safety in both runs: zero violations and every shared book's
     conservation audit passed (``conservation_ok: true``);
  2. bounded memory: the larger run's peak major heap (``top_heap_mb`` in
     the trailing ``timing`` block) is at most MAX_GROWTH times the
     smaller run's. A heap that grew with run size would be ten times
     larger here.

Each report must come from its own process: ``top_heap_mb`` is the
process's peak. Exit 0 when everything holds; a diagnostic and exit 1
otherwise.
"""

import sys

from benchlib import err, finish, load_json

MAX_GROWTH = 1.5


def check_safe(path, r):
    """Record safety failures of one report; return its peak heap (MB)."""
    if r.get("violated", 0) != 0 or r.get("violations"):
        err(f"{path}: {r.get('violated')} payments violated safety")
    if r.get("conservation_ok") is not True:
        err(f"{path}: a shared book failed its conservation audit")
    heap = r.get("timing", {}).get("top_heap_mb")
    if not isinstance(heap, (int, float)) or heap <= 0:
        err(f"{path}: timing.top_heap_mb missing or not positive: {heap!r}")
        return None
    return heap


def main(argv):
    if len(argv) != 3:
        print("usage: check_scale.py SMALL.json LARGE.json", file=sys.stderr)
        return 2
    small_path, large_path = argv[1:]
    small, large = load_json(small_path), load_json(large_path)
    if small.get("payments", 0) >= large.get("payments", 0):
        err(
            f"{small_path} has {small.get('payments')} payments, not fewer "
            f"than {large_path}'s {large.get('payments')}"
        )
    h_small = check_safe(small_path, small)
    h_large = check_safe(large_path, large)
    if h_small and h_large and h_large > MAX_GROWTH * h_small:
        err(
            f"peak heap grew {h_large / h_small:.2f}x from "
            f"{small.get('payments')} to {large.get('payments')} payments "
            f"({h_small} MB -> {h_large} MB; at most {MAX_GROWTH}x allowed)"
        )
    return finish(
        ok=(
            f"scale OK: {small.get('payments')} payments {h_small} MB, "
            f"{large.get('payments')} payments {h_large} MB"
        ),
        prefix="FAIL",
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
