#!/usr/bin/env python3
"""Schema + invariant checks for the `xchain hunt` JSON report.

Stdlib only. Validates the coverage-guided search's contract:

  1. shape: a ``hunt`` object with budget / generation / corpus members,
     one corpus entry per distinct signature, generation run counts
     summing to the budget and novel counts summing to the corpus size;
  2. coverage: run with ``--baseline``, the hunt must discover strictly
     more distinct outcome signatures than uniform sampling at the same
     budget and root seed (``signatures > uniform_signatures``) — the
     whole point of searching instead of sampling;
  3. shrinking: every stuck / safety-violation witness carries a shrunk
     plan no larger (in clause count) than the plan that discovered it,
     and a repro line quoting exactly that shrunk plan;
  4. optionally, the ``--repros-out`` file matches the corpus: one line
     per interesting witness, in discovery order;
  5. optionally (``--replay N XCHAIN``), the first N repro lines replay
     through ``XCHAIN chaos`` (a command, split like a shell line): each
     parses (exit neither 2 nor 124) and prints the classification of
     the corpus entry it came from.

Exit 0 when everything holds; a diagnostic and exit 1 otherwise.
"""

import shlex
import subprocess
import sys

from benchlib import err, finish, load_json

INTERESTING = {"stuck", "safety-violation"}
CLASSIFICATIONS = INTERESTING | {"safe-commit", "safe-abort"}


def clauses(plan):
    """Clause count of a one-line plan string ('none' has no clauses)."""
    if plan in ("", "none"):
        return 0
    return len([c for c in plan.split(";") if c.strip()])


def check_entry(i, e):
    cls = e.get("classification")
    if cls not in CLASSIFICATIONS:
        err(f"corpus[{i}]: unknown classification {cls!r}")
        return
    plan = e.get("plan")
    repro = e.get("repro", "")
    if not isinstance(plan, str) or not plan:
        err(f"corpus[{i}]: missing plan")
        return
    if cls in INTERESTING:
        shrunk = e.get("shrunk")
        if not isinstance(shrunk, str):
            err(f"corpus[{i}] ({cls}): no shrunk plan")
            return
        if clauses(shrunk) > clauses(plan):
            err(
                f"corpus[{i}]: shrunk plan has {clauses(shrunk)} clauses, "
                f"original {clauses(plan)}"
            )
        if f"--plan '{shrunk}'" not in repro:
            err(f"corpus[{i}]: repro does not quote the shrunk plan")
        if f"--seed {e.get('seed')}" not in repro:
            err(f"corpus[{i}]: repro does not quote the witness seed")


def replay(corpus, lines, n, xchain):
    """Run the first [n] repro lines through [xchain] (a shell-split
    command standing for the line's leading ``xchain``)."""
    by_repro = {e.get("repro"): e.get("classification") for e in corpus}
    for line in lines[:n]:
        argv = shlex.split(line)
        if argv[:2] != ["xchain", "chaos"]:
            err(f"repro line is not an xchain chaos command: {line}")
            continue
        run = subprocess.run(
            shlex.split(xchain) + argv[1:], capture_output=True, text=True
        )
        if run.returncode in (2, 124):
            err(f"repro line does not parse (exit {run.returncode}): {line}\n"
                f"{run.stderr.strip()}")
            continue
        want = f"classification: {by_repro.get(line)}"
        if want not in run.stdout.splitlines():
            err(f"replay of {line} does not print {want!r}")


def main():
    if len(sys.argv) < 2:
        print(
            "usage: check_hunt.py HUNT.json [--repros FILE [--replay N XCHAIN]]",
            file=sys.stderr,
        )
        return 2
    report = load_json(sys.argv[1])
    hunt = report.get("hunt")
    if not isinstance(hunt, dict):
        err("no 'hunt' object in report")
        return finish()

    for field in (
        "budget",
        "gen_size",
        "seed",
        "signatures",
        "uniform_signatures",
        "commits",
        "aborts",
        "stuck",
        "violations",
        "shrink_trials",
        "events",
    ):
        if not isinstance(hunt.get(field), int):
            err(f"hunt.{field} must be an int, got {hunt.get(field)!r}")

    budget = hunt.get("budget", 0)
    gens = hunt.get("generations")
    if not isinstance(gens, list) or not gens:
        err("hunt.generations missing")
        gens = []
    corpus = hunt.get("corpus")
    if not isinstance(corpus, list):
        err("hunt.corpus missing")
        corpus = []

    if sum(g.get("runs", 0) for g in gens) != budget:
        err(f"generation runs do not sum to the budget {budget}")
    if sum(g.get("novel", 0) for g in gens) != len(corpus):
        err("generation novel counts do not sum to the corpus size")
    if hunt.get("signatures") != len(corpus):
        err(
            f"signatures={hunt.get('signatures')} but corpus has "
            f"{len(corpus)} entries"
        )
    sigs = [e.get("signature") for e in corpus]
    if len(set(sigs)) != len(sigs):
        err("corpus contains duplicate signatures")

    uniform = hunt.get("uniform_signatures", -1)
    if uniform < 0:
        err("report lacks a uniform baseline (run hunt with --baseline)")
    elif hunt.get("signatures", 0) <= uniform:
        err(
            f"hunt found {hunt.get('signatures')} signatures, uniform "
            f"sampling found {uniform} at the same budget — search must "
            "strictly beat sampling"
        )

    for i, e in enumerate(corpus):
        check_entry(i, e)

    if len(sys.argv) >= 4 and sys.argv[2] == "--repros":
        with open(sys.argv[3], encoding="utf-8") as f:
            lines = [l.rstrip("\n") for l in f if l.strip()]
        expected = [
            e.get("repro")
            for e in corpus
            if e.get("classification") in INTERESTING
        ]
        if lines != expected:
            err(
                f"repro file has {len(lines)} lines, corpus expects "
                f"{len(expected)} (or order differs)"
            )
        if len(sys.argv) >= 7 and sys.argv[4] == "--replay":
            replay(corpus, lines, int(sys.argv[5]), sys.argv[6])

    return finish(
        ok=(
            f"check_hunt: {hunt.get('signatures')} signatures "
            f"(uniform {uniform}), "
            f"{sum(1 for e in corpus if e.get('classification') in INTERESTING)}"
            " shrunken repros — all invariants hold"
        )
    )


if __name__ == "__main__":
    sys.exit(main())
