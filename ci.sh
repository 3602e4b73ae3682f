#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   ./ci.sh         # gofmt + vet + build + full tests + race pass + run smokes
#                   #   + experiments_full.txt byte-identity + Go benchmarks
#                   #   once + vbench smoke
#   ./ci.sh quick   # same, but -short tests (skips the full-registry suites)
#                   #   and no experiments_full.txt check
#
# The race pass covers every package under internal/ and cmd/, listed by
# `go list` so a new package is race-tested without editing this file. The one
# exception is internal/experiments: its full-registry suites take minutes
# under -race, so its cell-parallel tests get a stage of their own below.
# The micro tier's packages (guest, host, core, workload) matter here too:
# their hot paths keep per-VM and per-owner state — bound callbacks, the
# PELT decay memo, scratch buffers — that parallel workers must never share.
set -eu

short=""
if [ "${1:-}" = "quick" ]; then
    short="-short"
fi

# Build outputs and report copies go to a private directory (under $TMPDIR
# when set), removed on exit.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== gofmt -l"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# bench/ is a module of its own, so the root vet never enters it.
echo "== go vet ./... (bench module)"
(cd bench && go vet ./...)

echo "== go build ./..."
go build ./...

# Fused-free gate: on arm64 (and ppc64le, s390x, riscv64, loong64) Go may
# fuse x*y + z into one multiply-add that rounds once, so the same seed would
# give other bytes there; amd64 never fuses. Every package of the module
# rounds each such product with an explicit float64(...), and arm64 builds
# of both commands must hold no fused instruction in any vsched function
# (the root vsched facade and every vsched/ package) or in either main
# package. Cross-compiling and disassembling work offline.
echo "== vsched and main fuse no multiply-add (GOARCH=arm64 objdump)"
for cmd in experiments vschedsim; do
    GOARCH=arm64 go build -o "$tmp/${cmd}_arm64" "./cmd/$cmd"
    go tool objdump -s '^(vsched[./]|main\.)' "$tmp/${cmd}_arm64" > "$tmp/${cmd}_arm64.s"
    fused=$(awk '
        /^TEXT / { fn = $2; sub(/\(SB\)$/, "", fn); next }
        $4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD)$/ { print fn " at " $1 ": " $4 }' "$tmp/${cmd}_arm64.s")
    if [ -n "$fused" ]; then
        echo "fused multiply-adds in cmd/$cmd; round each product with float64(...):" >&2
        echo "$fused" >&2
        exit 1
    fi
done

echo "== go test $short ./..."
go test $short ./...

race_pkgs=$(go list ./internal/... ./cmd/... | grep -vx 'vsched/internal/experiments' | tr '\n' ' ')
echo "== go test -race -short $race_pkgs"
# This includes the live ops plane end to end: internal/obshttp's
# TestEventStreamNDJSON and TestLiveStreamWhilePublishing stream a run's
# events over real TCP, the second while a publisher is still writing,
# TestServeAndStop drives Serve and Stop on a real listener, and
# internal/harness' TestObsTrialLifecycle drains the trial lifecycle the
# harness publishes. Both CLIs' -serve inertness tests
# (TestServeAndProgressInert, TestServeStdoutInert) run a live HTTP server
# beside the run loop, vschedsim's TestServeStreamsRun reads its whole run
# off /runs/vschedsim/events, TestWatchStdoutInert prints its -watch tables
# at the same run-loop safepoints, and the TestHeartbeat tests of
# internal/harness and experiments read the harness's progress bus while
# trials publish to it.
# shellcheck disable=SC2086 # word splitting of the package list is intended
go test -race -short $race_pkgs

# A race between the progress bus's publishers and its reader would be
# intermittent, so one pass can hide it: the bus's concurrency test runs
# twenty times under the race detector.
echo "== progress bus concurrency (-race -count=20)"
go test -race -count=20 -run TestConcurrentPublishers ./internal/progress/

# The heartbeat (experiments -progress) is a second reader of that bus,
# racing the trial publishers, so its tests run twenty times under the race
# detector too.
echo "== progress heartbeat (-race -count=20)"
go test -race -count=20 -run TestHeartbeat ./internal/harness/ ./cmd/experiments/

# The parallelism budget's recruit/release counter is shared by every
# par.Map in the process, nested ones included; a race in it would be just
# as intermittent, so the budget tests run twenty times too.
echo "== par budget (-race -count=20)"
go test -race -count=20 -run Budget ./internal/par/

# Engine differential suite under the race detector, explicitly and never
# -short: the timing-wheel engine must match the retained heap engine
# (internal/sim/heapengine) event for event on randomized scripts. This is
# the gate that lets the engine be optimized without re-recording goldens.
# cloudgen's two shortcuts face the same kind of gate: the size guard table
# and the thinning buckets must decide exactly as math.Pow and math.Sin do
# (TestSizeThresholdsDifferential, TestThinningDifferential; -race and
# -short shrink their sweeps, so the full sweeps run in the full go test stage).
# latprof's chunked span store faces one too: every profile read must match
# a reference that keeps closed spans as one growing []Span
# (TestSpanStoreDifferential).
# The allocation budgets ride along: the engine's schedule→fire path, the
# guest's steady-state window, the request servers' steady-state window, a
# vtrace ring emit of a known subject and a warm cycle over a fleet's 2,000
# subjects (TestRingEmitAllocBudget), a latprof span's wakeup→on→off cycle
# (TestSpanAllocBudget) and open spans moving between vCPUs and vCPUs between
# threads (TestFlushIndexAllocBudget) are all pinned at zero allocations; a
# closed latprof span stays one 96-byte pointer-free record
# (TestSpanRecordCompact), and closing 10,000 of them allocates at most 15%
# over their records' bytes (TestSpanStoreBytes); cloudgen.Generate
# reserves its trace once from the arrival-rate integral, builds its size
# guard table in one slice and keeps its thinning buckets in a fixed-size
# array, and faults.Generate reseeds one Rand, so neither call's allocation count grows
# with the trace or the fleet (that reseed is O(1): the Rand draws from
# faults' lazySource, which this stage also checks against math/rand's own
# source seed by seed and draw by draw); and the macro tier keeps a 16-byte
# macroVM, 32-byte service and 48-byte batch host records and a capped number of
# bytes allocated per trace VM over a 24 h, 1024-host RunMacro; and a warm
# flight recorder's sample pass stays under half an allocation
# (internal/telemetry's TestRecorderAllocBudget).
echo "== engine differential suite + alloc budgets (-race)"
go test -race -run 'Differential|WheelCorners|AllocBudget|SpanRecordCompact|SpanStoreBytes' ./internal/sim/ ./internal/guest/ ./internal/workload/ \
	./internal/vtrace/ ./internal/latprof/ ./internal/cloudgen/ ./internal/faults/ ./internal/fleet/ \
	./internal/telemetry/

# Cell-parallel experiments under the race detector: a cell shares no
# mutable state with its siblings, child Stats merge in cell order, and a
# panicking cell reaches the caller. -short keeps to cheap experiments (fig3,
# fig11, table3, ..., the micro fleet cells with their two telemetry
# recorders and the macro fleetscale and faulttol cells at scale 0.05):
# fig12+fig13 alone take over a minute under -race.
echo "== cell-parallel experiments (-race)"
go test -race -short -run Cells ./internal/experiments/

# Attribution smoke: the attrib experiment must produce byte-identical
# reports across two runs of the same seed — the profiler is a deterministic
# fold over the trace stream, and this catches any hidden-state leak the
# in-package tests might scope too narrowly to see.
echo "== attrib determinism smoke"
go build -o "$tmp"/vexp_ci ./cmd/experiments
"$tmp"/vexp_ci -run attrib -scale 0.1 -seed 7 > "$tmp"/vexp_attrib_a.txt
"$tmp"/vexp_ci -run attrib -scale 0.1 -seed 7 > "$tmp"/vexp_attrib_b.txt
cmp "$tmp"/vexp_attrib_a.txt "$tmp"/vexp_attrib_b.txt

# Full-record gate: every change to the simulator promises byte-identical
# paper output, so the whole registry at scale 1 and the default seed must
# reproduce the committed experiments_full.txt byte for byte (~45 s on 2
# vCPUs). quick skips it.
if [ -z "$short" ]; then
    echo "== experiments_full.txt byte-identity (-run all, scale 1)"
    "$tmp"/vexp_ci -run all > "$tmp"/vexp_full.txt
    cmp "$tmp"/vexp_full.txt experiments_full.txt
fi

# Examples smoke: every program under examples/ must not just compile but
# run to completion — they are the documented entry points.
echo "== examples smoke"
for d in examples/*/; do
    echo "-- go run ./$d"
    go run "./$d" > /dev/null
done

# Go benchmarks, one iteration each, so they cannot rot: wheel vs heap
# engine (internal/sim), placement index vs linear scan and the macro tier's
# epoch integration (internal/fleet: BenchmarkMacroEpoch reports
# ns/host-epoch and ns/resident-epoch, the cost per live VM record of the
# class sweeps), the tracer's disabled/enabled
# emit cost and its emit over a fleet's 2,000 subjects
# (BenchmarkEmitFleetSubjects, internal/vtrace), the attribution host fold's per-event cost
# as profilers pile up (internal/latprof), the guest's mask-driven wakeup
# selection at 16 and 64 vCPUs (internal/guest), the host's core-level
# busy change with and without a turbo flip (internal/host), the 96 h,
# 1024-host region trace and fault schedule (internal/cloudgen,
# internal/faults), a flight recorder's sample pass (internal/telemetry), and
# the root package's vSched ablations and experiment registry
# (bench_test.go; DESIGN §4 cites the ablations).
# One iteration measures nothing; it only checks that every benchmark still
# runs.
echo "== go benchmarks (-benchtime 1x)"
go test -run '^$' -bench . -benchtime 1x . ./internal/sim/ ./internal/fleet/ ./internal/vtrace/ ./internal/latprof/ ./internal/guest/ ./internal/host/ \
	./internal/cloudgen/ ./internal/faults/ ./internal/telemetry/

# Fleet-scale smoke: the fleetscale experiment at full scale — 1024
# heterogeneous hosts, ~115k VM arrivals (>=100k completed lifetimes), 48
# hours of virtual time, one parallel cell per policy — must finish inside
# the CI budget (the macro simulator does the whole thing in seconds), and
# RunMacro's conservation check panics on any unaccounted VM. Its policy
# cells run in parallel, so two same-seed runs must also be byte-identical:
# that catches run-to-run nondeterminism at full scale, where the fleet
# package's snapshot-digest tests only cover a small trace.
echo "== fleetscale determinism smoke (full scale)"
"$tmp"/vexp_ci -run fleetscale -seed 42 > "$tmp"/vexp_fleetscale_a.txt
"$tmp"/vexp_ci -run fleetscale -seed 42 > "$tmp"/vexp_fleetscale_b.txt
cmp "$tmp"/vexp_fleetscale_a.txt "$tmp"/vexp_fleetscale_b.txt

# Telemetry byte-identity smoke: the fleet experiment's first-fit and
# steal-aware CFS cells carry a flight recorder, and the run panics unless
# its memory stays bounded and its steal series shows the steal-aware gain.
# TestCellsMatchSerial/fleet in the -race Cells stage above pins each
# recorder snapshot between serial and parallel cells; on top of that, two
# runs of the same seed (with -telemetry sparklines on stdout) must be
# byte-identical.
echo "== fleet telemetry determinism smoke"
"$tmp"/vexp_ci -run fleet -scale 0.1 -seed 7 -telemetry > "$tmp"/vexp_fleet_a.txt
"$tmp"/vexp_ci -run fleet -scale 0.1 -seed 7 -telemetry > "$tmp"/vexp_fleet_b.txt
cmp "$tmp"/vexp_fleet_a.txt "$tmp"/vexp_fleet_b.txt

# Fault-tolerance smoke: the faulttol experiment embeds three panic gates
# (recovery strictly beating no-recovery on completed lifetimes, a schedule
# that actually loses VMs, exact VM conservation). On top of finishing at
# full scale — 1024 hosts, 48 h, the whole crash/brownout/stall schedule,
# one parallel cell per mode — two same-seed runs must be byte-identical.
echo "== faulttol byte-identity smoke (full scale)"
"$tmp"/vexp_ci -run faulttol -seed 42 > "$tmp"/vexp_faulttol_a.txt
"$tmp"/vexp_ci -run faulttol -seed 42 > "$tmp"/vexp_faulttol_b.txt
cmp "$tmp"/vexp_faulttol_a.txt "$tmp"/vexp_faulttol_b.txt

# vbench smoke: bench/ is a module of its own, so the root `go test ./...`
# never enters it. Its smoke test runs all four benchmark workloads at smoke
# size and checks every op against bench/testdata/golden.json — the macro
# tier's snapshot digests included.
echo "== vbench smoke (golden-checked)"
bench/check.sh smoke

echo "CI OK"
