#!/usr/bin/env python3
"""Schema + invariant checks for a shared notary committee sweep.

Stdlib only. Validates the report `xchain committee --out FILE` writes
(CI: `xchain committee --payments 64 --out BENCH_committee.json`):

  1. shape: payments, hops, pipeline, seed, and a non-empty ``sweep``
     of cells with family/size/f/batch, counts, a latency object and
     the certificate statistics under ``committee``;
  2. completeness: every cell ended quiescent and committed all its
     payments (a burst of payments through one committee must fully
     drain);
  3. batching: at every committee size present with both a batch-1 and
     a batch-32 cell, the batched decided-payments rate is strictly
     above the unbatched baseline;
  4. batch fill: the largest committee's batch-32 cell assembled at
     least one certificate carrying >= 32 verdicts;
  5. bounded consensus: certificates decide in bounded rounds — total
     rounds across a cell's certificates stay within ROUNDS_SLACK x
     certs (round 0 everywhere means rounds == certs; the slack admits
     an occasional view change without letting unbounded retries pass).

Exit 0 when everything holds; a diagnostic and exit 1 otherwise.
"""

import sys

from benchlib import err, finish, load_json

ROUNDS_SLACK = 2
FILL_TARGET = 32

CELL_INTS = [
    "size",
    "f",
    "batch",
    "committed",
    "decided_cpm",
    "messages",
    "certs",
    "verdicts",
    "max_batch",
    "rounds",
    "cert_lat_sum",
    "cert_lat_max",
]


def check_cell(payments, cell):
    name = (
        f"{cell.get('family')}:{cell.get('size')}"
        f":{cell.get('f')} batch {cell.get('batch')}"
    )
    certs = cell.get("committee")
    if not isinstance(certs, dict):
        err(f"{name}: committee certificate statistics missing")
        return None
    # flatten the certificate statistics into the cell for the checks below
    cell = {**cell, **certs}
    for k in CELL_INTS:
        v = cell.get(k)
        if not isinstance(v, int) or v < 0:
            err(f"{name}: {k} must be a non-negative int, got {v!r}")
            return None
    if cell.get("status") != "quiescent":
        err(f"{name}: status is {cell.get('status')!r}, want 'quiescent'")
    lat = cell.get("latency")
    if not isinstance(lat, dict) or not all(
        isinstance(lat.get(k), int) for k in ("p50", "p95", "max")
    ):
        err(f"{name}: latency object missing p50/p95/max ints")
        return None
    if cell["committed"] != payments:
        err(f"{name}: committed {cell['committed']} of {payments} payments")
    if cell["verdicts"] < cell["committed"]:
        err(
            f"{name}: {cell['verdicts']} certified verdicts cannot cover "
            f"{cell['committed']} commits"
        )
    if cell["max_batch"] > cell["batch"]:
        err(
            f"{name}: max_batch {cell['max_batch']} exceeds the "
            f"{cell['batch']}-verdict cap"
        )
    if cell["certs"] > 0 and cell["rounds"] > ROUNDS_SLACK * cell["certs"]:
        err(
            f"{name}: {cell['rounds']} rounds over {cell['certs']} certs — "
            f"consensus is not bounded (want <= {ROUNDS_SLACK}x)"
        )
    if cell["certs"] == 0 and cell["committed"] > 0:
        err(f"{name}: payments committed without any certificate")
    return cell


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_committee.json"
    doc = load_json(path)

    for k in ("payments", "hops", "pipeline"):
        if not isinstance(doc.get(k), int) or doc[k] < 1:
            err(f"{k} must be a positive int, got {doc.get(k)!r}")
    if not isinstance(doc.get("seed"), int):
        err(f"seed must be an int, got {doc.get('seed')!r}")
    payments = doc.get("payments")
    sweep = doc.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        err("sweep missing or empty")
        sweep = []

    by_size = {}
    for cell in sweep:
        cell = check_cell(payments, cell)
        if cell is not None:
            by_size.setdefault(cell["size"], {})[cell["batch"]] = cell

    for size, cells in sorted(by_size.items()):
        if 1 in cells and 32 in cells:
            unbatched = cells[1]["decided_cpm"]
            batched = cells[32]["decided_cpm"]
            if batched <= unbatched:
                err(
                    f"size {size}: batched rate {batched} must strictly "
                    f"beat unbatched {unbatched}"
                )

    if by_size:
        largest = max(by_size)
        cell = by_size[largest].get(32)
        if cell is None:
            err(f"largest committee ({largest}) has no batch-32 cell")
        elif cell["max_batch"] < FILL_TARGET:
            err(
                f"largest committee ({largest}) filled only "
                f"{cell['max_batch']}-verdict certificates, want >= "
                f"{FILL_TARGET}"
            )

    return finish(ok=f"{path}: committee sweep report OK", prefix="FAIL")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
