#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload cast-rse-gilbert --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs (the Go build cache and the
# binary) stay under .bench_build/ in the working directory, or under
# $CARGO_TARGET_DIR when that is set. The benchmark is its own Go module
# (perfbench/go.mod) that imports the repository's module through a
# relative replace, so the build fails, and this script exits non-zero
# without printing a result, when the repository's sources are absent.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOTMPDIR=$out/tmp
export GOENV=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
