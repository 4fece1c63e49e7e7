#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload stream-clean --seed 1 --seconds 45 --trace 0
#   bash perfbench/run.sh --smoke --seed 5
#
# Everything the build and the runs leave behind goes to .bench_build/
# in the current directory, including the Go build cache, so a run
# reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
