#!/usr/bin/env bash
# Runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload point_rw --seed 1 --seconds 21 --trace 0
#
# The Go build cache, the Go command's own files, the daemon binary,
# data directories and result records all stay under .bench_build/ in
# the checkout.
set -eu
root=$(pwd)
b="$root/.bench_build"
export GOCACHE="$b/gocache" GOTMPDIR="$b/gotmp" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR"
exec go -C perfbench run . -root "$root" "$@"
