#!/usr/bin/env bash
# Builds poetd and poetbench from this tree into .bench_build/ and runs the
# benchmark. All arguments go to poetbench; see bench/README.md.
#
#   bench/run.sh                                  every workload, end to end
#   bench/run.sh --workload rpc-fanin --trace 1   one workload, per layer
#   bench/run.sh --selfcheck                      repeatability check
#   bench/run.sh compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# Everything the toolchain writes stays inside the checkout, and nothing is
# fetched: the module needs only the standard library.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local

cd "$root"
go build -o "$build/poetd" ./cmd/poetd
go build -o "$build/poetbench" ./bench/poetbench
exec "$build/poetbench" "$@"
