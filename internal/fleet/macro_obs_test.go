package fleet

import (
	"bytes"
	"testing"

	"vsched/internal/faults"
	"vsched/internal/progress"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// TestMacroObsInert is the fleet-tier half of the determinism gate:
// attaching the progress publisher (bus + mirror) must leave the canonical
// snapshot and the telemetry snapshot byte-identical, faults and recovery
// included. The observed run's final mirror is the /metrics spine: every
// name once, registry, fleet aggregates and engine census side by side.
func TestMacroObsInert(t *testing.T) {
	trace := macroTestTrace(19)
	schedv := faults.Generate(19, len(trace.Hosts), trace.Horizon, faults.Config{
		CrashMTBF: 20 * 3600 * sim.Second,
	})
	base := MacroConfig{
		Trace: trace, Policy: StealAware{},
		Telemetry: &telemetry.Config{Interval: 30 * sim.Second},
		Faults:    &schedv,
		Recovery:  faults.RecoveryConfig{Enabled: true},
	}
	detached := RunMacro(base)

	attached := base
	attached.Obs = progress.NewPublisher(4096)
	attached.ObsLabel = "macro-obs-test"
	observed := RunMacro(attached)

	if !bytes.Equal(detached.Snapshot, observed.Snapshot) {
		t.Fatalf("attaching obs changed the simulation: %s vs %s",
			SnapshotDigest(detached.Snapshot), SnapshotDigest(observed.Snapshot))
	}
	var dj, oj bytes.Buffer
	if err := detached.Telemetry.Snapshot(false).WriteJSON(&dj); err != nil {
		t.Fatal(err)
	}
	if err := observed.Telemetry.Snapshot(false).WriteJSON(&oj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dj.Bytes(), oj.Bytes()) {
		t.Fatal("attaching obs changed the telemetry snapshot bytes")
	}

	mirrored := map[string]float64{}
	for _, sm := range attached.Obs.Mirror.Load() {
		if _, dup := mirrored[sm.Name]; dup {
			t.Fatalf("mirror serves %q twice", sm.Name)
		}
		mirrored[sm.Name] = sm.Value
	}
	for _, name := range []string{"sim.fired", "telemetry.bytes", "fleet.macro.util_mean"} {
		if _, ok := mirrored[name]; !ok {
			t.Fatalf("mirror lacks %q", name)
		}
	}
	if got := mirrored["fleet.macro.placed"]; got != float64(observed.Placed) {
		t.Fatalf("mirror fleet.macro.placed = %v, want %d", got, observed.Placed)
	}
}

// TestMacroObsStream drains the published events and reconciles them
// against the run outcome: every epoch ledger conserves, the fault/recovery
// event counts match the result counters, and run_done matches the final
// ledger exactly.
func TestMacroObsStream(t *testing.T) {
	trace := macroTestTrace(23)
	schedv := faults.Generate(23, len(trace.Hosts), trace.Horizon, faults.Config{
		CrashMTBF: 12 * 3600 * sim.Second,
	})
	pub := progress.NewPublisher(1 << 16)
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: LeastLoaded{},
		Faults:   &schedv,
		Recovery: faults.RecoveryConfig{Enabled: true},
		Obs:      pub,
		ObsLabel: "stream-test",
	})

	reader := pub.Bus.NewReader(true)
	buf := make([]progress.Event, 256)
	var epochs, fault, recov int
	var runStart, runDone *progress.Event
	for {
		n := reader.Poll(buf)
		if n == 0 {
			break
		}
		for i := range buf[:n] {
			ev := buf[i]
			switch ev.Kind {
			case progress.KindRunStart:
				runStart = &ev
			case progress.KindEpoch:
				epochs++
				if ev.Admitted != ev.Completed+ev.Lost+ev.Rejected+ev.Running+ev.Pending {
					t.Fatalf("epoch %d ledger does not conserve: %+v", ev.Epoch, ev)
				}
				if got := pub.Bus.LabelName(ev.Label); got != "stream-test" {
					t.Fatalf("epoch label %q", got)
				}
			case progress.KindFault:
				fault++
				if d := pub.Bus.LabelName(ev.Detail); d != "crash" && d != "brownout" && d != "stall" {
					t.Fatalf("fault detail %q", d)
				}
			case progress.KindRecovery:
				recov++
			case progress.KindRunDone:
				runDone = &ev
			}
		}
	}
	if reader.Dropped() != 0 {
		t.Fatalf("dropped %d events with a roomy ring", reader.Dropped())
	}
	if runStart == nil || runStart.Total != int64(res.Arrivals) {
		t.Fatalf("run_start: %+v (arrivals %d)", runStart, res.Arrivals)
	}
	if epochs == 0 {
		t.Fatal("no epoch events")
	}
	if want := res.Crashes + res.Brownouts + res.Stalls; fault != want {
		t.Fatalf("fault events %d != applied faults %d", fault, want)
	}
	if recov != res.Restarts {
		t.Fatalf("recovery events %d != restarts %d", recov, res.Restarts)
	}
	if runDone == nil {
		t.Fatal("no run_done event")
	}
	if int(runDone.Completed) != res.Lifetimes || int(runDone.Lost) != res.Lost ||
		int(runDone.Rejected) != res.Rejected || int(runDone.Running) != res.RunningAtEnd ||
		int(runDone.Pending) != res.PendingAtEnd {
		t.Fatalf("run_done %+v does not match result %+v", runDone, res)
	}
	if runDone.Admitted != runDone.Completed+runDone.Lost+runDone.Rejected+runDone.Running+runDone.Pending {
		t.Fatalf("final ledger does not conserve: %+v", runDone)
	}
	// The mirror carries the final registry state.
	var placed float64 = -1
	for _, sm := range pub.Mirror.Load() {
		if sm.Name == "fleet.macro.placed" {
			placed = sm.Value
		}
	}
	if placed != float64(res.Placed) {
		t.Fatalf("mirror fleet.macro.placed = %v, want %d", placed, res.Placed)
	}
}
