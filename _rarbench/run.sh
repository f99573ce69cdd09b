#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs
# it from the checkout root; every argument passes through, e.g.
#
#   bash _rarbench/run.sh --workload figures --seed 42 --seconds 30 --trace 0
#
# The build cache, temporary files, the go command's own config and
# telemetry files, and the binary stay under .bench_build/ at the
# checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOWORK=off GOFLAGS= GOENV=off GOTOOLCHAIN=local CGO_ENABLED=0 \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config"

(cd "$root/_rarbench" && go build -o "$out/rarbench" .)
cd "$root"
exec "$out/rarbench" "$@"
