#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload hot-doc --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/e2ebench: the Go
# build cache, the binary, the per-run data directories (removed when the
# run ends) and the trace files of --trace 1 runs.
set -euo pipefail

out="$(pwd)/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -workdir "$out" "$@"
