#!/usr/bin/env bash
# Builds the perf benchmark from source, then runs it with the given
# arguments (see perf.ml). Run from the root of an xchain checkout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: not at the root of an xchain checkout" >&2
  exit 2
fi
# build inside the checkout only, never into a shared cache
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
