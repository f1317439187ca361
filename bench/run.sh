#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (the Go build cache, toolchain telemetry and
# the binary) stays under .bench_build/ at the root of the repository; the
# build never reaches the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
