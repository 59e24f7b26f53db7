#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 24 --trace 0
#
# Run from the root of a checkout. Everything the build writes (binary,
# Go build and module caches, temporary files, toolchain telemetry) stays
# under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/config" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2

exec "$out/perfbench" "$@"
