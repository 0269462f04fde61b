#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload stencil64-adaptive-faults --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache, Go's telemetry counters and the
# traces stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
