#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build and module caches too, so nothing is written outside
# it) and runs it from that root with the given arguments. BENCHMARK.json
# names this script. bench/ is a module of its own that replaces the
# repository's module by path, so the build fails, and this script exits
# non-zero, where the repository's sources are missing.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
