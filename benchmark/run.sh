#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash benchmark/run.sh --workload ladder --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
