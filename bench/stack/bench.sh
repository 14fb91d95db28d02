#!/bin/sh
# Entry point for one benchmark run from the root of a source checkout:
# builds the benchmark and the node executable (the first run builds the
# whole tree), then runs one workload, printing its metrics and, last, a
# one-line JSON summary of the metrics BENCHMARK.json names.
#
#   sh bench/stack/bench.sh --workload sim-small --seed 7 --seconds 20 --trace 0
#
# Everything it writes stays under _build/: the build itself (with the
# shared dune cache off) and the benchmark's results and scratch stores.
set -eu
export XDG_CACHE_HOME="$PWD/_build/stack-bench/cache"
dune build --root . --cache=disabled --display=quiet \
  bench/stack/stack_bench.exe bin/rdtgc_cli.exe 1>&2
exec ./_build/default/bench/stack/stack_bench.exe drive "$@"
