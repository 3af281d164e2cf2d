#!/bin/sh
# Entry point named by BENCHMARK.json: builds the benchmark and the
# experiment binary its suite workload times, then runs the benchmark with
# the given arguments. Build output goes to stderr, so stdout ends with the
# benchmark's JSON line. Run from the repository root.
set -e
dune build --root . --cache=disabled --display=quiet benchmark/resoc_bench.exe bench/main.exe 1>&2
exec ./_build/default/benchmark/resoc_bench.exe "$@"
