#!/bin/bash
# The benchmark's entry point for BENCHMARK.json: builds bench/ with every
# build artefact inside the checkout, then runs it with the driver's
# arguments. `go run ./bench` does the same with the user's own Go caches.
#
# Run from the root of a checkout. It fails, printing no result, where
# there is no module to build (a directory holding only the benchmark).
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$build/bin"
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
