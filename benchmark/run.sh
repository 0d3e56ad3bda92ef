#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload pp-small --seed 1 --seconds 8 --trace 0
#
# Everything the build leaves behind (Go build cache, binary) stays in
# .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$build/motorbench" ./benchmark
exec "$build/motorbench" "$@"
