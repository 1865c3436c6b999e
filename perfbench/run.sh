#!/bin/sh
# Build the benchmark from this checkout's sources, then run it.
#
#   sh perfbench/run.sh --workload kv-resident --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result. The dune cache is disabled so that nothing is
# read or written outside the checkout.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
