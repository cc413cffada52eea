#!/usr/bin/env bash
# Builds the benchmark and the ucpcd daemon from this tree, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fit --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (binaries, Go build cache, span files).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too; GOPROXY=off because the build needs nothing from the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/ucpcd" ucpc/cmd/ucpcd >&2
cd "$root"
exec "$out/perfbench" -ucpcd "$out/ucpcd" "$@"
