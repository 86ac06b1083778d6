#!/usr/bin/env python3
"""Invariant checker for the runtime-verification artifacts.

Validates the two deterministic sinks the online monitor writes:

* ``--series FILE`` — a ``--series-out`` telemetry series: one JSON
  object per line, each with an integer ``t`` (sim-time, nondecreasing)
  plus integer-valued columns that stay the same set on every row, and
  a trailing ``{"series":{"rows":N,"interval":I}}`` meta line whose
  ``rows`` equals the number of data rows and whose ``interval`` is
  positive.

* ``--bundle FILE`` — a ``--bundle-out`` forensic bundle: a single
  ``{"bundle":{...}}`` object carrying reason (violation | stuck), the
  first-breach property/detail, a breach sim-time ``at >= 0``, a repro
  line that starts with ``xchain ``, and a flight-recorder ring: a
  bounded view of the engine trace whose window holds trace entries in
  ``xchain pay --trace-jsonl``'s object format. The window must use
  trace kinds only, be time-ordered, number its ``seq`` consecutively
  from ``dropped``, and agree with its recorded/dropped/capacity
  counters. A violation bundle must name a property and its breach must
  not predate the window; a stuck bundle uses ``-``.

Both flags are repeatable and may be mixed. Exit 0 when every artifact
holds, a diagnostic per failed invariant and exit 1 otherwise. Stdlib
only (benchlib).
"""

import sys

from benchlib import err, errors, finish, load_json, load_jsonl

TRACE_KINDS = {"sent", "delivered", "timer_set", "timer_fired", "observed",
               "halted", "crashed", "recovered"}


def check_series(path):
    rows = load_jsonl(path)
    if not rows:
        err(f"{path}: empty series (not even a meta line)")
        return
    meta, data = rows[-1], rows[:-1]
    if set(meta) != {"series"} or not isinstance(meta["series"], dict):
        err(f"{path}: last line is not the series meta object")
        return
    m = meta["series"]
    if m.get("rows") != len(data):
        err(f"{path}: meta rows={m.get('rows')!r} but {len(data)} data rows")
    if not (isinstance(m.get("interval"), int) and m["interval"] > 0):
        err(f"{path}: meta interval must be a positive int, got "
            f"{m.get('interval')!r}")
    prev_t = -1
    columns = None
    for lineno, row in enumerate(data, 1):
        t = row.get("t")
        if not isinstance(t, int) or t < 0:
            err(f"{path}:{lineno}: t must be a nonnegative int, got {t!r}")
            continue
        if t < prev_t:
            err(f"{path}:{lineno}: sim-time goes backwards ({t} < {prev_t})")
        prev_t = t
        cols = frozenset(k for k in row if k != "t")
        if columns is None:
            columns = cols
        elif cols != columns:
            err(f"{path}:{lineno}: column set changed mid-series")
        bad = [k for k in cols if not isinstance(row[k], int)]
        if bad:
            err(f"{path}:{lineno}: non-integer columns {sorted(bad)}")


def check_bundle(path):
    doc = load_json(path)
    if not isinstance(doc, dict) or set(doc) != {"bundle"}:
        err(f"{path}: expected a single {{\"bundle\": ...}} object")
        return
    b = doc["bundle"]
    for key in ("reason", "property", "detail", "at", "repro", "ring"):
        if key not in b:
            err(f"{path}: bundle lacks {key!r}")
    if errors:
        return
    if b["reason"] not in ("violation", "stuck"):
        err(f"{path}: reason must be violation|stuck, got {b['reason']!r}")
    if b["reason"] == "violation" and b["property"] in ("", "-"):
        err(f"{path}: a violation bundle must name the breached property")
    if not (isinstance(b["at"], int) and b["at"] >= 0):
        err(f"{path}: breach time must be a nonnegative int, got {b['at']!r}")
    if not (isinstance(b["repro"], str) and b["repro"].startswith("xchain ")):
        err(f"{path}: repro must be an xchain command line, got {b['repro']!r}")
    ring = b["ring"]
    if not isinstance(ring, dict):
        err(f"{path}: ring must be an object")
        return
    cap = ring.get("capacity")
    recorded = ring.get("recorded")
    dropped = ring.get("dropped")
    window = ring.get("window")
    if not (isinstance(cap, int) and cap > 0):
        err(f"{path}: ring capacity must be positive, got {cap!r}")
        return
    if not isinstance(window, list):
        err(f"{path}: ring window must be an array")
        return
    if not (isinstance(dropped, int) and dropped >= 0):
        err(f"{path}: ring dropped must be a nonnegative int, got {dropped!r}")
        return
    if len(window) > cap:
        err(f"{path}: window of {len(window)} exceeds capacity {cap}")
    if recorded != len(window) + dropped:
        err(f"{path}: recorded={recorded!r} != window {len(window)} + "
            f"dropped {dropped}")
    prev_t = -1
    for i, e in enumerate(window):
        if e.get("seq") != dropped + i:
            err(f"{path}: window[{i}]: seq {e.get('seq')!r}, expected "
                f"{dropped + i} (consecutive from dropped)")
        if e.get("kind") not in TRACE_KINDS:
            err(f"{path}: window[{i}]: unknown kind {e.get('kind')!r}")
        t = e.get("t")
        if not isinstance(t, int) or t < 0:
            err(f"{path}: window[{i}]: bad sim-time {t!r}")
            continue
        if t < prev_t:
            err(f"{path}: window[{i}]: time goes backwards ({t} < {prev_t})")
        prev_t = t
    if (b["reason"] == "violation" and window
            and isinstance(window[0].get("t"), int)
            and b["at"] < window[0]["t"]):
        err(f"{path}: breach at {b['at']} predates the whole ring window")


def main(argv):
    args = argv[1:]
    if not args or len(args) % 2:
        print(f"usage: {argv[0]} (--series FILE | --bundle FILE)...",
              file=sys.stderr)
        return 2
    checked = []
    for flag, path in zip(args[::2], args[1::2]):
        if flag == "--series":
            check_series(path)
        elif flag == "--bundle":
            check_bundle(path)
        else:
            print(f"usage: {argv[0]} (--series FILE | --bundle FILE)...",
                  file=sys.stderr)
            return 2
        checked.append(path)
    return finish(ok=f"{', '.join(checked)}: monitor artifacts hold")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
