#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload cells-engine --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the current directory, so a run writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/sitabench" .)
exec "$build/sitabench" "$@"
