#!/usr/bin/env python3
"""Scale gate: memory follows the work in flight, not the run size.

Stdlib only. Takes two reports of the same workload at two sizes, the
smaller first. Either both are `xchain load` reports (CI runs the
linear_2k spec at payments=10000 and at payments=100000):

    xchain load --spec '<spec with payments=10000>' --seed 1 --out s10k.json
    xchain load --spec '<spec with payments=100000>' --seed 1 --out s100k.json
    python3 scripts/check_scale.py s10k.json s100k.json

or both are `xchain chaos --soak` reports (CI runs 2,000 and 20,000
runs): a soak keeps only its violating runs, so its heap must not grow
with the run count either.

    xchain chaos --soak -j 1 --seed 1 --runs 2000 --out c2k.json
    xchain chaos --soak -j 1 --seed 1 --runs 20000 --out c20k.json
    python3 scripts/check_scale.py c2k.json c20k.json

CI gates the committee_600 spec at 600 and 6,000 payments the same way
as a load report: a committee keeps only its undecided slots and the
items in flight, and a cancelled patience timer (100,000 ticks in that
spec) leaves the engine queue at once rather than at its deadline.

and requires:

  1. safety in both runs: for a load report, zero violations and every
     shared book's conservation audit passed (``conservation_ok:
     true``); for a soak, an empty ``violations`` list;
  2. bounded memory: the larger run's peak major heap (``top_heap_mb`` in
     the trailing ``timing`` block) is at most MAX_GROWTH (load) or
     MAX_SOAK_GROWTH (soak) times the smaller run's. A heap that grew
     with run size would be ten times larger here. A soak's bound is
     looser because Fleet keeps one outcome slot per run, and its
     heaps are small enough (about 1 MB at 2,000 runs) that the
     report's 0.1 MB rounding is felt.
  3. for load reports, steady promotion: the larger run's promoted words
     per payment (``promoted_words_per_event`` in the ``timing`` block
     times the report's ``events``, over its ``payments``) are at most
     MAX_PROMOTED_GROWTH times the smaller run's. A load run reuses a
     retired payment's block for the next payment of its shape, so its
     steady state writes into memory that is already promoted; a free
     list that stopped reusing at scale would promote every new block
     again, and its words per payment would grow with the run.

Each report should come from its own process, so that one run's heap
is not read as another's. Exit 0 when everything holds; a diagnostic
and exit 1 otherwise.
"""

import sys

from benchlib import err, finish, load_json

MAX_GROWTH = 1.5
MAX_SOAK_GROWTH = 3.0
MAX_PROMOTED_GROWTH = 1.1


def size(r):
    """The run size: payments of a load report, runs of a soak."""
    if "chaos" in r:
        return r["chaos"].get("runs", 0)
    return r.get("payments", 0)


def check_safe(path, r):
    """Record safety failures of one report; return its peak heap (MB)."""
    if "chaos" in r:
        violations = r["chaos"].get("violations")
        if violations is None or violations:
            err(f"{path}: soak reports safety violations: {violations!r}")
    else:
        if r.get("violated", 0) != 0 or r.get("violations"):
            err(f"{path}: {r.get('violated')} payments violated safety")
        if r.get("conservation_ok") is not True:
            err(f"{path}: a shared book failed its conservation audit")
    heap = r.get("timing", {}).get("top_heap_mb")
    if not isinstance(heap, (int, float)) or heap <= 0:
        err(f"{path}: timing.top_heap_mb missing or not positive: {heap!r}")
        return None
    return heap


def promoted_per_payment(path, r):
    """A load report's promoted words per payment, or None (recorded)."""
    per_event = r.get("timing", {}).get("promoted_words_per_event")
    events, payments = r.get("events"), r.get("payments")
    if not isinstance(per_event, (int, float)) or per_event < 0:
        err(f"{path}: timing.promoted_words_per_event missing: {per_event!r}")
        return None
    if not isinstance(events, int) or not isinstance(payments, int) or payments <= 0:
        err(f"{path}: events or payments missing: {events!r}, {payments!r}")
        return None
    return per_event * events / payments


def main(argv):
    if len(argv) != 3:
        print("usage: check_scale.py SMALL.json LARGE.json", file=sys.stderr)
        return 2
    small_path, large_path = argv[1:]
    small, large = load_json(small_path), load_json(large_path)
    soak = "chaos" in small
    if soak != ("chaos" in large):
        err(f"{small_path} and {large_path} are not the same kind of report")
        return finish(prefix="FAIL")
    unit = "runs" if soak else "payments"
    bound = MAX_SOAK_GROWTH if soak else MAX_GROWTH
    n_small, n_large = size(small), size(large)
    if n_small >= n_large:
        err(
            f"{small_path} has {n_small} {unit}, not fewer than "
            f"{large_path}'s {n_large}"
        )
    h_small = check_safe(small_path, small)
    h_large = check_safe(large_path, large)
    if h_small and h_large and h_large > bound * h_small:
        err(
            f"peak heap grew {h_large / h_small:.2f}x from "
            f"{n_small} to {n_large} {unit} "
            f"({h_small} MB -> {h_large} MB; at most {bound}x allowed)"
        )
    promoted = ""
    if not soak:
        p_small = promoted_per_payment(small_path, small)
        p_large = promoted_per_payment(large_path, large)
        if p_small is not None and p_large is not None:
            promoted = (
                f"; promoted words per payment {p_small:.0f} -> {p_large:.0f}"
            )
            if p_large > MAX_PROMOTED_GROWTH * p_small:
                err(
                    f"promoted words per payment grew "
                    f"{p_large / max(p_small, 1e-9):.2f}x from {n_small} to "
                    f"{n_large} {unit} ({p_small:.1f} -> {p_large:.1f}; "
                    f"at most {MAX_PROMOTED_GROWTH}x allowed)"
                )
    return finish(
        ok=(
            f"scale OK: {n_small} {unit} {h_small} MB, "
            f"{n_large} {unit} {h_large} MB{promoted}"
        ),
        prefix="FAIL",
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
