#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash macrobench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory: the Go build cache, the binary, and the
# topology's state directories (removed when the run ends).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f macrobench/go.mod ]]; then
	echo "macrobench: run from the root of a GroupTravel checkout (go.mod, internal/, macrobench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd macrobench && go build -o "$out/macrobench" .) >&2
exec "$out/macrobench" "$@"
