#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root; every argument passes through to the benchmark binary:
#
#   bash perfbench/run.sh --workload fleet-pooled --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the span dumps all
# live under .bench_build/ in the current directory, so a run writes
# nothing outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
