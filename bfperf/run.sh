#!/usr/bin/env bash
# Builds the bfperf benchmark from this checkout and runs it:
#
#   bash bfperf/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go caches,
# the binary, scratch cache directories, Chrome traces) stays under
# .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd bfperf && go build -o "$out/bfperf" .)
exec "$out/bfperf" "$@"
