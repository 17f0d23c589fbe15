#!/usr/bin/env bash
# Builds dasc-server and the benchmark from the checkout this is run in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload sim-meetup --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the server's journals stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dasc-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a dasc checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off

go build -o "$out/bin/dasc-server" ./cmd/dasc-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/dasc-server" -tmp "$out/tmp" "$@"
