#!/usr/bin/env bash
# Builds partbench and runs it from the checkout root, passing every argument
# through:
#
#   bash bench/run.sh --workload json-hit --seed 1 --seconds 20 --trace 0
#
# All build output (Go build cache, temporary files, binaries, daemon logs,
# trace files) stays under .bench_build/ in the checkout, and the toolchain is
# kept offline: the benchmark needs only the standard library and this
# repository.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

cd "$root"
go -C bench build -o "$build/partbench" .
exec "$build/partbench" "$@"
