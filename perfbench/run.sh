#!/usr/bin/env bash
# Builds catalystd and the benchmark program from this checkout, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload nav-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, the generated corpus, results and spans) stays under
# .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$build/bin/catalystd" ./cmd/catalystd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --catalystd "$build/bin/catalystd" --build-dir "$build" "$@"
