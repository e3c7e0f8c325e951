#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root, e.g.
#   bash e2ebench/run.sh --workload enroll --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and run scratch stay under .bench_build/.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the repository root (needs go.mod and e2ebench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
