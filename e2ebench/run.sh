#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload keyed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --dir "$out" "$@"
