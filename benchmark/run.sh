#!/usr/bin/env bash
# Builds the benchmark binary from source inside the checkout and runs it.
# Called from the root of a checkout:
#   bash benchmark/run.sh --workload stamp_steady --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here="$root/benchmark"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The Go tool's caches, its per-user configuration (environment file,
# telemetry counters) and temporary files all go under the build
# directory, and it may not fetch a toolchain or a module.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export TMPDIR="$out/tmp"
export BENCH_OUT_DIR="$out"

# The module's replace directive points at the checkout root; without
# the repository around it this build fails and the script exits non-zero.
go -C "$here" build -o "$out/triad-bench" .
exec "$out/triad-bench" "$@"
