#!/usr/bin/env bash
# Builds the daemons and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload clog-mesh --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache, binaries, per-run scratch directories).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp"

go build -o "$build/bin/" ./cmd/delrepd ./cmd/delrepfleet >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
