#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it. Run from the
# repository root; all arguments go to the benchmark, e.g.
#
#   bash hostbench/run.sh --workload sim-sweep --seed 1 --seconds 20 --trace 0
#
# The build and its Go caches live in .bench_build/ under the current
# directory, so the run reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f hostbench/go.mod ]]; then
	echo "hostbench: run from the repository root (go.mod and hostbench/go.mod not found)" >&2
	exit 2
fi
# Non-login shells may lack Go on PATH; fall back to the Go
# distribution's standard install location.
command -v go > /dev/null || PATH="$PATH:/usr/local/go/bin"

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd hostbench && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
