package fleet

import (
	"fmt"
	"sort"

	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// Telemetry sources for a fleet cell. Series names are precomputed at
// attach time so the per-sample emit path hands the recorder stable strings
// and allocates nothing.
//
// Layers sampled:
//
//	fleet.*            the cell registry (arrivals, placements, e2e, ...)
//	fleet.hostNN.*     per-host control-plane state (steal EMA, utilization)
//	fleet.class.*      per-VM-class population and completed ops
//	sim.*              the engine's own event-queue census (SelfSource)
//	self.*             wall-clock throughput (volatile, WallSource)

// hostSeriesNames are one host's precomputed series names.
type hostSeriesNames struct {
	steal, util, vms string
}

// hostSource samples each host's steal EMA, committed-vCPU utilization and
// resident VM count — the same signals the steal-aware policy and the
// migration controller consult, now continuously observable.
type hostSource struct {
	f     *Fleet
	names []hostSeriesNames
}

func newHostSource(f *Fleet) *hostSource {
	s := &hostSource{f: f}
	for i := range f.hosts {
		p := fmt.Sprintf("fleet.host%02d.", i)
		s.names = append(s.names, hostSeriesNames{
			steal: p + "steal_ema",
			util:  p + "util",
			vms:   p + "vms",
		})
	}
	return s
}

// Collect implements telemetry.Source.
func (s *hostSource) Collect(now sim.Time, emit func(string, float64)) {
	cap := float64(s.f.capacity())
	for i, hs := range s.f.hosts {
		n := &s.names[i]
		emit(n.steal, hs.stealEMA)
		emit(n.util, float64(hs.committed)/cap)
		emit(n.vms, float64(len(hs.vms)))
	}
}

// classSource samples per-VM-class population and cumulative completed
// operations. Classes are fixed by the arrival trace, so the series set is
// known up front.
type classSource struct {
	f          *Fleet
	idx        map[string]int
	alive, ops []float64
	aliveNames []string
	opsNames   []string
}

func newClassSource(f *Fleet, arrivals []Arrival) *classSource {
	names := map[string]bool{}
	for _, a := range arrivals {
		names[a.Type.Name] = true
	}
	classes := make([]string, 0, len(names))
	for n := range names {
		classes = append(classes, n)
	}
	sort.Strings(classes)
	s := &classSource{
		f:     f,
		idx:   make(map[string]int, len(classes)),
		alive: make([]float64, len(classes)),
		ops:   make([]float64, len(classes)),
	}
	for i, n := range classes {
		s.idx[n] = i
		s.aliveNames = append(s.aliveNames, "fleet.class."+n+".alive")
		s.opsNames = append(s.opsNames, "fleet.class."+n+".ops")
	}
	return s
}

// Collect implements telemetry.Source.
func (s *classSource) Collect(now sim.Time, emit func(string, float64)) {
	for i := range s.alive {
		s.alive[i], s.ops[i] = 0, 0
	}
	for _, vm := range s.f.vms {
		i := s.idx[vm.typ.Name]
		if vm.alive {
			s.alive[i]++
		}
		s.ops[i] += float64(vm.inst.Ops())
	}
	for i := range s.aliveNames {
		emit(s.aliveNames[i], s.alive[i])
		emit(s.opsNames[i], s.ops[i])
	}
}

// attachTelemetry builds the cell's flight recorder: registry, per-host,
// per-class and simulator self-observability sources, plus the volatile
// wall-clock source. Everything except the wall source reads only simulation
// state, so the deterministic snapshot is byte-identical between serial and
// parallel runs — TestCellsMatchSerial/fleet pins exactly that.
func (f *Fleet) attachTelemetry(cfg telemetry.Config, arrivals []Arrival) *telemetry.Recorder {
	rec := telemetry.New(f.eng, cfg)
	rec.AddSource("", telemetry.RegistrySource(f.reg))
	rec.AddSource("", newHostSource(f))
	rec.AddSource("", newClassSource(f, arrivals))
	rec.AddSource("", &telemetry.SelfSource{Eng: f.eng, Tracer: f.cfg.Tracer})
	rec.AddVolatileSource("", &telemetry.WallSource{Eng: f.eng})
	return rec
}
