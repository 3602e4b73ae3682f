package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vsched/internal/faults"
	"vsched/internal/obshttp"
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

// TestMacroObsStream runs a faulted macro run published into a live obshttp
// server and reconciles what a TCP client sees against the run outcome. One
// client consumes /runs/{id}/events as NDJSON while another scrapes /metrics
// for the whole run. Checked: every streamed epoch ledger conserves, the
// stream accounts for every published event (received + dropped ==
// published), the fault/recovery event counts match the result counters,
// run_done matches the final ledger exactly, and the final scrape carries
// the exact placed sample.
func TestMacroObsStream(t *testing.T) {
	trace := macroTestTrace(23)
	schedv := faults.Generate(23, len(trace.Hosts), trace.Horizon, faults.Config{
		CrashMTBF: 12 * 3600 * sim.Second,
	})
	srv := obshttp.New(obshttp.Options{BusSize: 1 << 16, PollInterval: 2 * time.Millisecond})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	run := srv.Register("stream-test")
	pub := run.Publisher()

	streamed := make(chan streamTally, 1)
	go func() { streamed <- consumeStream(addr, run.ID) }()
	stopScrape, scraped := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stopScrape:
				scraped <- n
				return
			default:
			}
			if body, err := httpGet(addr, "/metrics"); err == nil && len(body) > 0 {
				n++
			}
		}
	}()

	res := RunMacro(MacroConfig{
		Trace: trace, Policy: LeastLoaded{},
		Faults:   &schedv,
		Recovery: faults.RecoveryConfig{Enabled: true},
		Obs:      pub,
		ObsLabel: "stream-test",
	})
	run.Finish()
	st := <-streamed
	close(stopScrape)
	t.Logf("%d /metrics scrapes during the run", <-scraped)

	if st.err != "" {
		t.Fatal(st.err)
	}
	published := pub.Bus.Seq()
	if st.end == nil || st.end.Received != st.events || st.end.Received+st.end.Dropped != published {
		t.Fatalf("stream does not reconcile: end %+v, consumer counted %d, published %d", st.end, st.events, published)
	}
	if st.end.Dropped != 0 {
		t.Fatalf("dropped %d of %d events with a roomy ring", st.end.Dropped, published)
	}
	if st.runStart == nil || st.runStart.Total != int64(res.Arrivals) {
		t.Fatalf("run_start: %+v (arrivals %d)", st.runStart, res.Arrivals)
	}
	if st.epochs == 0 {
		t.Fatal("no epoch events")
	}
	if want := res.Crashes + res.Brownouts + res.Stalls; st.faults != want {
		t.Fatalf("fault events %d != applied faults %d", st.faults, want)
	}
	if st.recoveries != res.Restarts {
		t.Fatalf("recovery events %d != restarts %d", st.recoveries, res.Restarts)
	}
	d := st.runDone
	if d == nil {
		t.Fatal("no run_done event")
	}
	if int(d.Completed) != res.Lifetimes || int(d.Lost) != res.Lost ||
		int(d.Rejected) != res.Rejected || int(d.Running) != res.RunningAtEnd ||
		int(d.Pending) != res.PendingAtEnd {
		t.Fatalf("run_done %+v does not match result %+v", d, res)
	}
	if d.Admitted != d.Completed+d.Lost+d.Rejected+d.Running+d.Pending {
		t.Fatalf("final ledger does not conserve: %+v", d)
	}
	// The mirror carries the final registry state, and /metrics serves it.
	var placed float64 = -1
	for _, sm := range pub.Mirror.Load() {
		if sm.Name == "fleet.macro.placed" {
			placed = sm.Value
		}
	}
	if placed != float64(res.Placed) {
		t.Fatalf("mirror fleet.macro.placed = %v, want %d", placed, res.Placed)
	}
	body, err := httpGet(addr, "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("vsched_metric{run=\"stream-test\",name=\"fleet.macro.placed\"} %d\n", res.Placed)
	if !strings.Contains(string(body), want) {
		t.Fatalf("final /metrics scrape lacks %q:\n%s", strings.TrimSpace(want), body)
	}
}

// wireRec decodes one NDJSON line of the event stream: a progress event,
// or a drops/stream_end record carrying the dropped and received counts.
type wireRec struct {
	progress.WireEvent
	Dropped  uint64 `json:"dropped"`
	Received uint64 `json:"received"`
}

// streamTally is what one event-stream client saw.
type streamTally struct {
	events                     uint64 // progress events (not drops or stream_end records)
	epochs, faults, recoveries int
	runStart, runDone, end     *wireRec
	err                        string
}

// consumeStream reads /runs/{id}/events over TCP until stream_end. It checks
// each epoch's ledger as it arrives, so a violation is caught even if later
// events would hide it.
func consumeStream(addr, id string) (st streamTally) {
	resp, err := http.Get("http://" + addr + "/runs/" + id + "/events")
	if err != nil {
		st.err = fmt.Sprintf("event stream: %v", err)
		return st
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec wireRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			st.err = fmt.Sprintf("event stream: bad line %q: %v", sc.Bytes(), err)
			return st
		}
		switch rec.Kind {
		case "stream_end":
			st.end = &rec
			return st
		case "drops":
			continue
		case "run_start":
			st.runStart = &rec
		case "epoch":
			st.epochs++
			if rec.Admitted != rec.Completed+rec.Lost+rec.Rejected+rec.Running+rec.Pending {
				st.err = fmt.Sprintf("epoch %d ledger does not conserve: %+v", rec.Epoch, rec)
				return st
			}
			if rec.Label != "stream-test" {
				st.err = fmt.Sprintf("epoch label %q", rec.Label)
				return st
			}
		case "fault":
			st.faults++
			if d := rec.Detail; d != "crash" && d != "brownout" && d != "stall" {
				st.err = fmt.Sprintf("fault detail %q", d)
				return st
			}
		case "recovery":
			st.recoveries++
		case "run_done":
			st.runDone = &rec
		}
		st.events++
	}
	st.err = fmt.Sprintf("event stream ended without stream_end: %v", sc.Err())
	return st
}

// httpGet fetches one path from the server and returns the body.
func httpGet(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
