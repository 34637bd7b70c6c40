#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags.
# Run from the root of the checkout:
#   bash perfbench/run.sh --workload kv_read_heavy --seed 1 --seconds 20 --trace 0
# Build outputs and the go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
