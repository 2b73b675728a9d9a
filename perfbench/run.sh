#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload gateway-b4096 --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache and the binary stay
# under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
