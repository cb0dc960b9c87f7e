#!/usr/bin/env bash
# Builds the benchmark and blessd from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload colo --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

# Keep the Go toolchain's caches and configuration inside the checkout, and
# never reach for the network: the module has no external dependencies.
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
go build -o "$build/bin/blessd" bless/cmd/blessd
cd "$root"

exec "$build/bin/perfbench" -blessd "$build/bin/blessd" -out "$build/perfbench" "$@"
