#!/usr/bin/env bash
# Builds and runs the fdt benchmark from the repository root:
#
#   bash fdtbench/run.sh --workload exact-mix --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary build files and the binary stay under
# .bench_build/ in the checkout, so the benchmark writes nowhere else.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$root/fdtbench" build -o "$out/fdtbench" .
exec "$out/fdtbench" "$@"
