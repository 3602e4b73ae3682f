#!/bin/sh
# check.sh — checks around the vbench benchmark. Run from the repository root.
#
#   bench/check.sh smoke     # vet + the smoke test of the bench module (seconds)
#   bench/check.sh full      # paper suite at scale 1, seed 42, vs experiments_full.txt (~70 s)
#   bench/check.sh reps N    # N untraced runs per workload, alternating the
#                            # workload order, then the spread table
#   bench/check.sh record    # re-record bench/testdata/golden.json
#
# A change that alters simulated output re-records the goldens with
# `bench/check.sh record` and says why in its description.
set -eu
cd "$(dirname "$0")/.."

case "${1:-}" in
smoke)
    (cd bench && go vet ./... && go test ./...)
    ;;
full)
    bash bench/run.sh crosscheck experiments_full.txt
    ;;
reps)
    n=${2:?usage: bench/check.sh reps N}
    out=${CARGO_TARGET_DIR:-.bench_build}/reps
    rm -rf "$out"
    mkdir -p "$out"
    files=""
    i=1
    while [ "$i" -le "$n" ]; do
        order="paper cloud cloud-faults fleet-observed"
        if [ $((i % 2)) -eq 0 ]; then
            order="fleet-observed cloud-faults cloud paper"
        fi
        for w in $order; do
            f="$out/$w-$i.json"
            bash bench/run.sh -workload "$w" -seed "$i" -trace 0 -json "$f" > /dev/null
            files="$files $f"
        done
        i=$((i + 1))
    done
    # shellcheck disable=SC2086 # word splitting of the file list is intended
    bash bench/run.sh spread $files
    ;;
record)
    for size in full smoke; do
        for seed in 42 1042; do
            bash bench/run.sh -workload all -seed "$seed" -size "$size" -seconds 0 -record > /dev/null
        done
    done
    ;;
*)
    echo "usage: bench/check.sh smoke | full | reps N | record" >&2
    exit 2
    ;;
esac
