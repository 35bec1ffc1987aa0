#!/usr/bin/env bash
# Builds dmbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash dmbench/run.sh --workload sweep-easyport --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory; nothing is fetched from the network.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C "$root/dmbench" -o "$build/dmbench" .
exec "$build/dmbench" "$@"
