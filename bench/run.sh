#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload weak64 --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, traces and serve data directories all
# stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd bench && go build -o "$out/stencil-bench" .)
"$out/stencil-bench" -work "$out" "$@"
