#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload blocking --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, module files, the binary)
# stays under $CARGO_TARGET_DIR, default .bench_build at the repository
# root. The benchmark is its own module that reaches the simulator through
# a replace directive, so outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$build/config"

# A private copy of go.mod absorbs any update the go command needs (for
# example when the simulator's go line moves past the benchmark's), so the
# tracked file never changes.
cp benchmark/go.mod "$build/go.mod"
rm -f "$build/go.sum"
(cd benchmark && go build -modfile="$build/go.mod" -o "$build/oversub-benchmark" .)
exec "$build/oversub-benchmark" "$@"
