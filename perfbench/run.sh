#!/usr/bin/env bash
# Builds the daemon-path benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload solve-churn --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout. Outside a checkout holding the HARP module
# (only the benchmark directory present) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$build/gocache" GOPATH="$build/gopath"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -work "$build" "$@"
