#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the benchmark from the sources in
# this checkout, keeping Go's caches under bench/out (which bench/.gitignore
# names), and runs it with the arguments given. In a directory without the
# repository's go.mod the build fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/tdb-bench" ./bench
exec "$build/tdb-bench" "$@"
