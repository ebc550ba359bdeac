#!/usr/bin/env bash
# Builds correctbenchd and cbbench from the checkout in the current
# directory, then runs cbbench against that daemon. Every argument is
# passed through to cbbench, e.g.
#
#   bash cmd/cbbench/run.sh --workload grid_cold --seed 42 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build outputs, the Go build cache
# and the benchmark's scratch stores all stay under .bench_build.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (its default is "local"), every go command forks a
# detached sidecar that outlives it. "go telemetry off" itself starts
# none, and records the mode for the go commands below.
go telemetry off

go build -o "$out/correctbenchd" ./cmd/correctbenchd
(cd cmd/cbbench && go build -o "$out/cbbench" .)
exec "$out/cbbench" -root "$root" -daemon "$out/correctbenchd" "$@"
