package faults

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"vsched/internal/sim"
)

func testConfig() Config {
	return Config{
		CrashMTBF:    40 * Hour,
		BrownoutMTBF: 20 * Hour,
		StallMTBF:    10 * Hour,
		MigFailProb:  0.1,
	}
}

const Hour = 3600 * sim.Second

// regionConfig is the schedule the macro benchmark's faulted workload runs:
// MTBFs chosen for ~48 crashes, ~96 brownouts and ~144 stalls across hosts
// over horizon.
func regionConfig(hosts int, horizon sim.Duration) Config {
	mtbf := func(target float64) sim.Duration {
		return sim.Duration(float64(hosts) * float64(horizon) / target)
	}
	return Config{CrashMTBF: mtbf(48), BrownoutMTBF: mtbf(96), StallMTBF: mtbf(144), MigFailProb: 0.1}
}

// digest folds every field of every event through FNV-64a.
func digest(s Schedule) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d mig=%x\n", s.Seed, math.Float64bits(s.MigFailProb))
	for _, e := range s.Events {
		fmt.Fprintf(h, "%d %d %d %d %x\n", e.At, e.Host, e.Kind, e.Duration, math.Float64bits(e.Factor))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenSchedule pins the 1024-host, 96 h region schedule byte for byte:
// any change to the sub-stream seeding or draw order shows up here.
func TestGoldenSchedule(t *testing.T) {
	const hosts, horizon = 1024, 96 * Hour
	s := Generate(42, hosts, horizon, regionConfig(hosts, horizon))
	const want = "1db3db1b9c8c8512"
	if got := digest(s); got != want {
		t.Fatalf("region schedule digest changed: got %s want %s (%d events)", got, want, len(s.Events))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, 64, 48*Hour, testConfig())
	b := Generate(7, 64, 48*Hour, testConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, config) produced different schedules")
	}
	c := Generate(8, 64, 48*Hour, testConfig())
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Adding hosts must not perturb the events of existing hosts: each host's
// process draws from its own sub-stream.
func TestGenerateHostStreamsIndependent(t *testing.T) {
	small := Generate(7, 8, 48*Hour, testConfig())
	big := Generate(7, 16, 48*Hour, testConfig())
	filter := func(s Schedule) []Event {
		var out []Event
		for _, e := range s.Events {
			if e.Host < 8 {
				out = append(out, e)
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(small), filter(big)) {
		t.Fatal("growing the fleet changed existing hosts' fault events")
	}
}

func TestGenerateShape(t *testing.T) {
	horizon := 48 * Hour
	s := Generate(42, 64, horizon, testConfig())
	if len(s.Events) == 0 {
		t.Fatal("expected events at these MTBFs")
	}
	counts := map[Kind]int{}
	for i, e := range s.Events {
		if i > 0 {
			prev := s.Events[i-1]
			if e.At < prev.At || (e.At == prev.At && e.Host < prev.Host) {
				t.Fatalf("events not sorted at %d: %+v after %+v", i, e, prev)
			}
		}
		if e.Host < 0 || e.Host >= 64 {
			t.Fatalf("event host %d out of range", e.Host)
		}
		if e.At < 0 || e.At >= sim.Time(horizon) {
			t.Fatalf("event at %v outside horizon", e.At)
		}
		if e.Duration <= 0 {
			t.Fatalf("non-positive duration %v", e.Duration)
		}
		if e.Kind == Brownout && (e.Factor <= 0 || e.Factor >= 1) {
			t.Fatalf("brownout factor %v outside (0,1)", e.Factor)
		}
		if e.Kind != Brownout && e.Factor != 0 {
			t.Fatalf("%v event carries a factor", e.Kind)
		}
		counts[e.Kind]++
	}
	// Expected counts: hosts * horizon / (MTBF + mean duration), roughly.
	for kind, want := range map[Kind]float64{Crash: 64 * 48 / 40, Brownout: 64 * 48 / 20, Stall: 64 * 48 / 10} {
		got := float64(counts[kind])
		if got < want/2 || got > want*2 {
			t.Errorf("%v count %v implausible for expectation %.0f", kind, got, want)
		}
	}
}

// Same-kind faults on one host must never overlap (renewal measured from the
// end of the previous fault).
func TestGenerateNoSameKindOverlap(t *testing.T) {
	s := Generate(3, 32, 48*Hour, testConfig())
	last := map[[2]int]sim.Time{}
	for _, e := range s.Events {
		key := [2]int{e.Host, int(e.Kind)}
		if until, ok := last[key]; ok && e.At < until {
			t.Fatalf("host %d %v fault at %v overlaps previous (until %v)", e.Host, e.Kind, e.At, until)
		}
		last[key] = e.Until()
	}
}

func TestGenerateDisabledKinds(t *testing.T) {
	cfg := testConfig()
	cfg.CrashMTBF, cfg.StallMTBF = 0, 0
	s := Generate(1, 16, 48*Hour, cfg)
	for _, e := range s.Events {
		if e.Kind != Brownout {
			t.Fatalf("disabled kind %v still generated", e.Kind)
		}
	}
}

func TestMigrationFails(t *testing.T) {
	s := Generate(9, 4, Hour, testConfig())
	fails := 0
	const n = 20000
	for i := uint64(0); i < n; i++ {
		if s.MigrationFails(i) != s.MigrationFails(i) {
			t.Fatal("MigrationFails not deterministic")
		}
		if s.MigrationFails(i) {
			fails++
		}
	}
	frac := float64(fails) / n
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("failure fraction %.3f far from configured 0.10", frac)
	}
	var zero *Schedule
	if zero.MigrationFails(1) {
		t.Fatal("nil schedule must never fail migrations")
	}
	none := Schedule{Seed: 9}
	if none.MigrationFails(1) {
		t.Fatal("zero probability must never fail migrations")
	}
}

func TestScheduleEmpty(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Fatal("nil schedule should be empty")
	}
	s := Generate(9, 4, Hour, testConfig())
	if s.Empty() {
		t.Fatal("generated schedule with events reported empty")
	}
}

func TestBackoff(t *testing.T) {
	rc := RecoveryConfig{}.WithDefaults()
	if !rc.Enabled {
		// WithDefaults must not flip the enable bit.
		_ = rc
	}
	if got := rc.Backoff(1); got != 60*sim.Second {
		t.Fatalf("attempt 1 backoff %v, want 60s", got)
	}
	if got := rc.Backoff(2); got != 120*sim.Second {
		t.Fatalf("attempt 2 backoff %v, want 120s", got)
	}
	if got := rc.Backoff(20); got != 15*60*sim.Second {
		t.Fatalf("attempt 20 backoff %v, want the 15m cap", got)
	}
	if got := rc.Backoff(0); got != rc.Backoff(1) {
		t.Fatalf("attempt 0 should clamp to 1")
	}
	// Monotone non-decreasing.
	prev := sim.Duration(0)
	for i := 1; i < 24; i++ {
		d := rc.Backoff(i)
		if d < prev {
			t.Fatalf("backoff decreased at attempt %d: %v < %v", i, d, prev)
		}
		prev = d
	}
}

func TestValidatePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad factor range": func() {
			cfg := testConfig()
			cfg.FactorLo, cfg.FactorHi = 0.9, 0.2
			Generate(1, 4, Hour, cfg)
		},
		"factor above one": func() {
			cfg := testConfig()
			cfg.FactorLo, cfg.FactorHi = 0.5, 1.5
			Generate(1, 4, Hour, cfg)
		},
		"bad mig prob": func() {
			cfg := testConfig()
			cfg.MigFailProb = 1.0
			Generate(1, 4, Hour, cfg)
		},
		"no hosts": func() { Generate(1, 0, Hour, testConfig()) },
		"negative CrashMTBF": func() {
			cfg := testConfig()
			cfg.CrashMTBF = -Hour
			Generate(1, 4, Hour, cfg)
		},
		"negative BrownoutMTBF": func() {
			cfg := testConfig()
			cfg.BrownoutMTBF = -Hour
			Generate(1, 4, Hour, cfg)
		},
		"negative StallMTBF": func() {
			cfg := testConfig()
			cfg.StallMTBF = -Hour
			Generate(1, 4, Hour, cfg)
		},
		"negative CrashDowntime": func() {
			cfg := testConfig()
			cfg.CrashDowntime = -sim.Second
			Generate(1, 4, Hour, cfg)
		},
		"negative BrownoutMean": func() {
			cfg := testConfig()
			cfg.BrownoutMean = -sim.Second
			Generate(1, 4, Hour, cfg)
		},
		"negative StallMean": func() {
			cfg := testConfig()
			cfg.StallMean = -sim.Second
			Generate(1, 4, Hour, cfg)
		},
		"no horizon": func() {
			Generate(1, 4, 0, testConfig())
		},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: expected panic", name)
					return
				}
				// A negative field's panic names the field.
				if field, ok := strings.CutPrefix(name, "negative "); ok && !strings.Contains(fmt.Sprint(r), field) {
					t.Errorf("%s: panic %q does not name %s", name, r, field)
				}
			}()
			fn()
		}()
	}
}

// TestGenerateAllocBudget: one reseeded Rand serves every (host, kind)
// sub-stream, so with the MTBFs scaled to the same expected event count a
// 1024-host schedule allocates no more than a 64-host one.
func TestGenerateAllocBudget(t *testing.T) {
	allocs := func(hosts int) float64 {
		cfg := regionConfig(hosts, 96*Hour)
		return testing.AllocsPerRun(3, func() { Generate(42, hosts, 96*Hour, cfg) })
	}
	small, big := allocs(64), allocs(1024)
	if d := big - small; d > 2 || d < -2 {
		t.Fatalf("Generate allocs: %v at 64 hosts, %v at 1024; want within 2 of each other", small, big)
	}
}

// BenchmarkGenerate times the 1024-host, 96 h region schedule.
func BenchmarkGenerate(b *testing.B) {
	const hosts, horizon = 1024, 96 * Hour
	cfg := regionConfig(hosts, horizon)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSchedule = Generate(42, hosts, horizon, cfg)
	}
}

var benchSchedule Schedule
