#!/usr/bin/env bash
# run.sh — builds bench/vbench from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload paper --seed 42 --seconds 20 --trace 0
#   bash bench/run.sh spread .bench_build/reps/*.json
#
# Everything the build and the run write (the binary, Go's build cache,
# module cache, config and temp files, span files) stays under
# $CARGO_TARGET_DIR, by default .bench_build. The build fails — and so does
# this script, without a result line — when the simulator's sources are not
# beside bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export CARGO_TARGET_DIR="$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$out/vbench" ./vbench) >&2
exec "$out/vbench" "$@"
