#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments; everything it writes stays under the checkout's root.
#   bash bench/run.sh --workload hwy-beacon --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -seed 1        # every workload, both passes
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# keep the toolchain's caches inside the checkout, and off the network
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-modcacherw GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$build/vanet-bench" .
exec "$build/vanet-bench" "$@"
