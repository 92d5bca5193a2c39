#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -workload scan-replay -seed 7 -seconds 10 -trace 0
#
# The Go build cache and the binary live under .bench_build/ at the root of
# the checkout, so a run reads and writes nothing outside it. The build
# needs the simulator's sources one directory up; without them it fails
# and the script exits non-zero before any measurement.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$build/iceclave-benchmark" .
exec "$build/iceclave-benchmark" "$@"
