"""Shared plumbing for the repo's JSON report checkers.

check_fleet.py, check_trace.py, check_committee.py and check_perf.py
all follow the same shape: load a JSON (or JSONL) artifact, collect invariant failures into
a list, print them with a prefix and exit non-zero if any. This module
is that shape, factored out; the checkers keep only their
domain-specific assertions. Stdlib only, importable because Python puts
the running script's directory on sys.path.
"""

import json
import sys

errors = []


def err(msg):
    """Record one failed invariant; reported by finish()."""
    errors.append(msg)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_jsonl(path):
    """Parse one JSON object per non-blank line; bad lines become errors."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                err(f"{path}:{lineno}: bad JSON: {e}")
    return rows


def finish(ok=None, prefix="error"):
    """Print collected errors (exit code 1) or the success line (0)."""
    if errors:
        for e in errors:
            print(f"{prefix}: {e}", file=sys.stderr)
        return 1
    if ok:
        print(ok)
    return 0
