#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache, module
# cache and temp files included, so nothing is written outside the checkout)
# and runs it from the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/netsession-bench" .
cd "$root"
exec "$build/netsession-bench" -out "$root/benchmark/out" "$@"
