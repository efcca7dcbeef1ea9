#!/usr/bin/env bash
# Builds the benchmark and the treegiond daemon from the checkout's sources,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache, the binaries, span dumps, daemon logs and the
# service workload's temporary artifact stores.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/treegiond" ]]; then
	echo "perfbench: run from the root of a treegion checkout (no sources found in $root)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin" "$build/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/treegiond" ./cmd/treegiond >&2

exec "$build/bin/perfbench" -daemon "$build/bin/treegiond" -out "$build/out" "$@"
