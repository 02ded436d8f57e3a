#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Every file the toolchain and the
# benchmark write lands under .bench_build/ in that checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOENV=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" HOME="$build/config"

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
