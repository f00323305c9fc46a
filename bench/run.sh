#!/usr/bin/env bash
# Builds the benchmark and the merynd daemon from the sources of the
# checkout it is run from, then runs one benchmark invocation:
#
#   bash bench/run.sh --workload paper-burst --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, cache and
# temporary file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/merynd" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/merynd and bench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/cache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" PPROF_TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/meryn-benchmark" .)
go build -o "$build/merynd" ./cmd/merynd

exec "$build/meryn-benchmark" -work "$build" -merynd "$build/merynd" -spec "$root/BENCHMARK.json" "$@"
