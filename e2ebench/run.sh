#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload point-read --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The build cache, the binary and every
# file a run writes stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOFLAGS="-mod=mod -buildvcs=false" GOMODCACHE="$build/gomodcache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" "$@"
