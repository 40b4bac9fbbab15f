#!/bin/sh
# Build the benchmark from source, then run one workload:
#   sh entbench/run.sh --workload entangled-pairs --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout. Build output goes to stderr so the
# last line of standard output is the result JSON.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./entbench/entbench.exe 1>&2
exec ./_build/default/entbench/entbench.exe "$@"
