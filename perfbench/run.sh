#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pipeline-hangzhou --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binary, traces, checkpoint scratch) stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/config"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export TMPDIR="$build/go-tmp"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
