#!/bin/sh
# Builds the whole-epoch benchmark from the checkout it sits in and runs it
# with the given arguments (see README.md). Run from the repository root:
#
#   sh perfbench/run.sh --workload testbed-diurnal --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root: the Go build cache, temporary build files, the binary, the
# write-ahead journals of the chaos-journal workload and the traced run's
# span files. No network is used: the module has no dependencies beyond
# the repository itself.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/goldibench" .)
exec "$out/goldibench" "$@"
