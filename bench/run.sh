#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the repository root:
#
#   bash bench/run.sh -all -seed 1 -out bench/out/run.json
#   bash bench/run.sh --workload fanout-mem --seed 1 --seconds 16 --trace 0
#
# It keeps every build product (Go build cache included) under
# .bench_build/ in the checkout, builds the harness, and hands over to
# it; the harness builds ./cmd/treesimd itself.
set -euo pipefail
if [ ! -f BENCHMARK.json ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
if [ ! -f go.mod ] || [ ! -d cmd/treesimd ]; then
	echo "bench/run.sh: no treesim module here to build the daemon from" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/treesim-benchmark" .
exec "$build/treesim-benchmark" "$@"
