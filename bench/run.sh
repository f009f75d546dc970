#!/usr/bin/env bash
# Builds the benchmark from source and runs it. BENCHMARK.json names this
# script as the command; the arguments (--workload, --seed, --seconds,
# --trace) go to the program unchanged.
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the go command's own files (module cache, telemetry counters,
# which it would otherwise put under $HOME) and the binary under
# .bench_build/, the clusters' logs and the span dump under bench/out/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"

cd "$here"
go build -o "$build/abcast-bench" . >&2
exec "$build/abcast-bench" "$@"
