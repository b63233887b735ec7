#!/usr/bin/env bash
# Builds the service benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload parse --seed 1 --seconds 24 --trace 0
#
# Build outputs, the Go build cache and the go command's own files all
# stay under $CARGO_TARGET_DIR (default .bench_build), so a run writes
# nothing outside the checkout; nothing is downloaded.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The benchmark builds ipg-serve beside its own binary.
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
