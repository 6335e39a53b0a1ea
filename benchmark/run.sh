#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Everything
# the build and the run write (Go's build cache, temporary files, data
# directories) stays under .bench_build in the working directory.
set -euo pipefail
root="$PWD"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/benchmark" ]; then
	echo "benchmark/run.sh: run from the root of a checkout (go.mod and benchmark/ are missing here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
