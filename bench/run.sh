#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the toolchain writes (build cache, scratch files, the binary)
# goes under .bench_build/ at the checkout root, the benchmark's own
# output under bench/out/; nothing outside the checkout is touched.
#
#   bash bench/run.sh -seed 42
#   bash bench/run.sh --workload store_mixed --seed 7 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
# The provenance block asks git for the revision; keep it from looking for
# a repository above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$(dirname "$here")")"

cd "$here"
go build -o "$build/jpegact-bench" .
exec "$build/jpegact-bench" "$@"
