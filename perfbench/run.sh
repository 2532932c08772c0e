#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig3-cdd --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the go command's own state and the binary live under
# .bench_build at the checkout root; nothing is fetched over the network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
