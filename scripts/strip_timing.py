#!/usr/bin/env python3
"""Strip the nondeterministic timing members from an xchain JSON report.

Every JSON report the CLI and bench write (`xchain chaos --out`,
`xchain explore --out`, `xchain hunt --out`, `xchain load --out`,
`xchain committee --out`, `xchain trace --out`,
`xchain profile --out/--profile-out`, BENCH_load.json) is
byte-identical for a fixed (workload, seed, plan) at any domain count —
except the ``"timing": {...}`` and ``"prof_timing": {...}`` objects,
which carry host measurements (the run cost, see docs/observability.md).
This filter removes exactly those members so reports can be
byte-compared across reruns, machines, and ``-j`` values:

    xchain chaos --soak --runs 200 -j 1 --out a.json
    xchain chaos --soak --runs 200 -j 4 --out b.json
    cmp <(strip_timing.py a.json) <(strip_timing.py b.json)

The runtime-verification sinks (``--series-out`` telemetry series,
``--bundle-out`` forensic bundles, the ``monitor:`` verdict line) are
deterministic by design and carry no wall-clock members.

Equivalent to ``sed -E 's/,"(prof_)?timing":\\{[^}]*\\}//g'``
(both objects are flat, so the scan to the first closing brace
is exact), but kept as a script so CI and docs have one named, testable
normalizer.

Reads the file arguments (or stdin) and writes the stripped bytes to
stdout. Stdlib only.
"""

import re
import sys

TIMING = re.compile(r',"(?:prof_)?timing":\{[^}]*\}')


def strip(text: str) -> str:
    return TIMING.sub("", text)


def main(argv):
    if len(argv) > 1:
        for path in argv[1:]:
            with open(path, encoding="utf-8") as f:
                sys.stdout.write(strip(f.read()))
    else:
        sys.stdout.write(strip(sys.stdin.read()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
