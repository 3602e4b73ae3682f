package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"vsched/internal/experiments"
	"vsched/internal/progress"
)

// fakeRunners returns cheap runners: "ok" always succeeds, "boom" always
// panics.
func fakeRunners() []experiments.Runner {
	return []experiments.Runner{
		{ID: "ok", Title: "always succeeds", Run: func(o experiments.Options) *experiments.Report {
			r := &experiments.Report{ID: "ok", Title: "ok", Header: []string{"seed"}}
			r.Add(string(rune('0' + o.Seed%10)))
			return r
		}},
		{ID: "boom", Title: "always panics", Run: func(o experiments.Options) *experiments.Report {
			panic(errors.New("kaboom"))
		}},
	}
}

// TestObsTrialLifecycle drains the bus after a run and checks the full
// lifecycle: run_start, per-trial start/done pairs with exact done/total
// accounting, failure details, and the terminal run_done.
func TestObsTrialLifecycle(t *testing.T) {
	bus := progress.NewBus()
	res := Run(Config{
		Runners:  fakeRunners(),
		BaseSeed: 42,
		Reps:     3,
		Obs:      bus,
	})
	if res.Trials() != 6 || res.Failed() != 3 {
		t.Fatalf("trials=%d failed=%d", res.Trials(), res.Failed())
	}

	reader := bus.NewReader()
	buf := make([]progress.Event, 64)
	var evs []progress.Event
	for {
		n := reader.Poll(buf)
		if n == 0 {
			break
		}
		evs = append(evs, buf[:n]...)
	}
	if reader.Dropped() != 0 {
		t.Fatalf("dropped %d events with a roomy ring", reader.Dropped())
	}

	counts := map[progress.Kind]int{}
	for _, ev := range evs {
		counts[ev.Kind]++
	}
	if counts[progress.KindRunStart] != 1 || counts[progress.KindRunDone] != 1 {
		t.Fatalf("run events: %v", counts)
	}
	if counts[progress.KindTrialStart] != 6 || counts[progress.KindTrialDone] != 6 {
		t.Fatalf("trial events: %v", counts)
	}
	if evs[0].Kind != progress.KindRunStart || evs[0].Total != 6 {
		t.Fatalf("first event: %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind != progress.KindRunDone || last.Done != 6 || last.Failed != 3 {
		t.Fatalf("last event: %+v", last)
	}

	// Done tallies on trial_done events are a permutation of 1..6, each
	// carries its trial's wall time, and the failing experiment's trials
	// carry the truncated panic text.
	seen := map[int64]bool{}
	for _, ev := range evs {
		if ev.Kind != progress.KindTrialDone {
			continue
		}
		if seen[ev.Done] {
			t.Fatalf("duplicate done tally %d", ev.Done)
		}
		seen[ev.Done] = true
		if ev.WallNS <= 0 {
			t.Fatalf("trial_done %d carries no wall time: %+v", ev.Done, ev)
		}
		if ev.Label == "boom" {
			if !strings.Contains(ev.Detail, "kaboom") {
				t.Fatalf("boom trial detail = %q", ev.Detail)
			}
		} else if ev.Label != "ok" {
			t.Fatalf("unexpected trial label %q", ev.Label)
		}
	}
	for i := int64(1); i <= 6; i++ {
		if !seen[i] {
			t.Fatalf("missing done tally %d (saw %v)", i, seen)
		}
	}
}

// TestObsInert proves attaching the bus changes nothing about the
// result: trial reports, metrics, and aggregates are deeply equal.
func TestObsInert(t *testing.T) {
	cfg := Config{Runners: fakeRunners()[:1], BaseSeed: 7, Reps: 2}
	detached := Run(cfg)
	cfg.Obs = progress.NewBus()
	attached := Run(cfg)
	for i := range detached.Experiments {
		d, a := detached.Experiments[i], attached.Experiments[i]
		if !reflect.DeepEqual(d.Aggregate, a.Aggregate) {
			t.Fatalf("experiment %s aggregate diverged with obs attached", d.ID)
		}
		for j := range d.Trials {
			if !reflect.DeepEqual(d.Trials[j].Report, a.Trials[j].Report) ||
				!reflect.DeepEqual(d.Trials[j].Metrics, a.Trials[j].Metrics) {
				t.Fatalf("trial %s/%d diverged with obs attached", d.ID, j)
			}
		}
	}
}

// TestHeartbeat checks the heartbeat read off the run's progress bus ends
// with the final tally, prefixes every line, and stays plain text.
func TestHeartbeat(t *testing.T) {
	var buf strings.Builder
	bus := progress.NewBus()
	stop := Heartbeat(bus, &buf)
	Run(Config{
		Runners:  fakeRunners()[:1],
		BaseSeed: 1,
		Reps:     2,
		Obs:      bus,
	})
	stop()
	out := buf.String()
	if !strings.Contains(out, "harness: 2/2 trials") {
		t.Fatalf("final heartbeat missing:\n%s", out)
	}
	if strings.ContainsAny(out, "{}") {
		t.Fatalf("heartbeat is not plain text:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "harness: ") {
			t.Fatalf("unexpected heartbeat line %q", line)
		}
	}
}

// TestHeartbeatOffByDefault: no bus, no reader, no output machinery —
// Run simply works.
func TestHeartbeatOffByDefault(t *testing.T) {
	res := Run(Config{Runners: fakeRunners()[:1], BaseSeed: 1, Reps: 1})
	if res.Failed() != 0 {
		t.Fatalf("failed = %d", res.Failed())
	}
}
