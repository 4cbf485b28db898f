#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# executes it. Run from the repository root:
#
#   bash benchmark/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -compare a1.out a2.out -- b1.out b2.out
#
# Every file the Go toolchain writes (build cache, temporary files, its
# configuration and telemetry) stays under .bench_build in the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -o "$out/benchmark" .)

# The revision is metadata only; a checkout without git history reports
# "unknown". The ceiling keeps git from searching above the checkout.
rev=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)

exec "$out/benchmark" -rev "$rev" "$@"
