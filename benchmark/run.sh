#!/usr/bin/env bash
# `go run ./benchmark` with the toolchain's build cache and temporaries kept
# under .bench_build/ in the checkout this script sits in, so that a run
# reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -o "$build/hifind-benchmark" ./benchmark
exec "$build/hifind-benchmark" "$@"
