#!/usr/bin/env bash
# Builds the simulator benchmark from the sources of the checkout it
# belongs to and runs it, passing every argument through:
#
#   bash simbench/run.sh --workload conn-scale --seed 1 --seconds 35 --trace 0
#
# The build cache and the binary live in .bench_build/ at the checkout
# root, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the go command writes (build cache, temporary work,
# telemetry, module cache) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
bin="$out/simbench.$$"
go -C "$here" build -o "$bin" . >&2
mv -f "$bin" "$out/simbench"
cd "$root"
exec "$out/simbench" "$@"
