#!/usr/bin/env bash
# Build the benchmark and the ldafp CLI from this checkout, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload all  [--seed N] [--seconds S]
#
# Must be started from (or point into) a full source checkout: it exits
# non-zero, without printing a result, when the library sources are not
# there.  Build output goes to stderr; the last line of stdout is the
# JSON result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

for f in dune-project lib bin BENCHMARK.json perfbench/dune; do
  if [ ! -e "$f" ]; then
    echo "perfbench: $root/$f is missing; run from a full source checkout" >&2
    exit 2
  fi
done

# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/ldafp.exe 1>&2

exec ./_build/default/perfbench/perfbench.exe "$@"
