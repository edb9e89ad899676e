#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
#
#   bash bench/run.sh                                  all workloads, both passes
#   bash bench/run.sh -workload cold_fill -trace 0     one timed pass
#   bash bench/run.sh -compare old.json new.json       benchdiff
#
# Everything the build leaves behind goes under .bench_build/ at the
# repository root (git-ignored): the binary, the Go build cache and the
# toolchain's temporary files, so a run reads and writes only inside
# its checkout. The benchmark is its own Go module (bench/go.mod) that
# replaces the repository module with ../, so it needs no network.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

export BENCH_DIR="$here"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
