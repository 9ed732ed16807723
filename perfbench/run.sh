#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload robust-commit --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced run's span files stay
# under .bench_build/perfbench in the current directory. The benchmark
# is its own module (perfbench/go.mod) that builds the repository's
# packages from the parent directory, so it cannot build, and exits
# non-zero, without the repository's sources beside it.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
