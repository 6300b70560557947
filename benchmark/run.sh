#!/usr/bin/env bash
# Builds cmd/logstudy and the benchmark harness from source into
# .bench_build/ at the root of the checkout, then runs the harness with
# the arguments given. Everything the build and the run write stays
# inside the checkout: the Go build cache is kept under .bench_build/
# too, so the first run in a checkout compiles the standard library.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/logstudy" ./cmd/logstudy
go -C benchmark build -o "$build/harness" .
exec "$build/harness" -logstudy "$build/logstudy" -work "$build/tmp" "$@"
