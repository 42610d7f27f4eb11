#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-report --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, the go
# command's own configuration and telemetry, and the files a run writes
# (span dumps, the observed-record run ledger) all stay under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export XDG_CONFIG_HOME="$root/.bench_build/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
