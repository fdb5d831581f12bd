#!/bin/sh
# Builds the benchmark harness from source and runs it. Run from the
# repository root:
#
#   sh bench/run.sh --workload schedd-light --seed 1 --seconds 10 --trace 0
#   sh bench/run.sh compare OLD.jsonl NEW.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the toolchain's configuration and
# telemetry counters, the harness and the programs under test, and each
# run's scratch files.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
XDG_CONFIG_HOME="$build/config"
GOCACHE="$build/gocache"
GOMODCACHE="$build/gomod"
GOPATH="$build/gopath"
GOTMPDIR="$build/tmp"
TMPDIR="$build/tmp"
GOPROXY=off
GOTOOLCHAIN=local
GOWORK=off
GOFLAGS=
CGO_ENABLED=0
export XDG_CONFIG_HOME GOCACHE GOMODCACHE GOPATH GOTMPDIR TMPDIR GOPROXY GOTOOLCHAIN GOWORK GOFLAGS CGO_ENABLED
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
