#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it. Run it from
# the root of the checkout; every argument is passed to the benchmark:
#
#   bash bench/run.sh                                   # every workload, traced
#   bash bench/run.sh --workload crawl-cascade --seed 7 --trace 0
#   bash bench/run.sh compare a*.out -- b*.out
#
# All build output, caches and temporary files stay in .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
