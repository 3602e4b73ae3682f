package fleet

// HostInfo is the per-host row a placement policy scores. Policies are
// control-plane code: they consult fleet bookkeeping (commitments) and
// guest-observable telemetry (steal), never host physics.
type HostInfo struct {
	Committed int     // vCPUs currently committed
	Capacity  int     // admission bound (overcommit * threads)
	StealRate float64 // EMA steal fraction per thread, 0..~1
}

// Policy decides where an arriving VM goes, through the fleet's HostIndex.
// Score is the value the index minimises for one host, lower is better; it
// must be a pure function of the row, because the fleet recomputes it
// whenever that host's commitments, telemetry or fault windows change and
// stores it in the host's leaf (see indexLeaf). Policies that don't rank
// (first-fit) return 0. Place returns a host whose leaf has room for vcpus,
// or -1 to reject; both tiers panic on any other answer (see pick). Ranked
// policies break every tie toward the lowest host ID, and heterogeneous
// Capacity values must not disturb that — the cluster may mix host classes
// (see internal/cloudgen).
type Policy interface {
	Name() string
	Score(h HostInfo) float64
	Place(ix *HostIndex, vcpus int) int
}

// FirstFit packs: the lowest-indexed host with room wins. The classic
// fragmentation-averse default — and the policy that piles neighbours onto
// the same threads while later hosts idle.
type FirstFit struct{}

func (FirstFit) Name() string { return "first-fit" }

func (FirstFit) Score(HostInfo) float64 { return 0 }

func (FirstFit) Place(ix *HostIndex, vcpus int) int { return ix.FirstFit(vcpus) }

// LeastLoaded spreads (worst-fit): the fitting host with the fewest
// committed vCPUs wins, ties to the lower index — explicitly by absolute
// commitments, not utilization, so on a heterogeneous fleet equal-committed
// hosts of different capacities still tie and resolve by host ID. Balances
// *promised* capacity, blind to how much of it is actually being fought
// over.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "least-loaded" }

func (LeastLoaded) Score(h HostInfo) float64 { return float64(h.Committed) }

func (LeastLoaded) Place(ix *HostIndex, vcpus int) int { return ix.BestScore(vcpus) }

// StealAware is the fleet-level analogue of vSched's insight: commitments
// lie the same way the vCPU abstraction lies, so consult measured steal.
// Each fitting host is scored stealRate + 0.1*utilization and the lowest
// score wins (ties to the lower index): measured contention dominates, and
// the small utilization term keeps placement spread while the steal signal
// is still warming up — without it, an idle-but-overcommitted host would
// soak up arrivals until the damage shows up in telemetry one EMA late.
// A batch-heavy host repels new tenants even when its commitment count
// looks moderate. Utilization is relative to each host's own Capacity, so
// heterogeneous fleets rank fairly; exact score ties (same steal, same
// utilization) resolve to the lower host ID.
type StealAware struct{}

func (StealAware) Name() string { return "steal-aware" }

func (StealAware) Score(h HostInfo) float64 {
	return h.StealRate + 0.1*float64(h.Committed)/float64(h.Capacity)
}

func (StealAware) Place(ix *HostIndex, vcpus int) int { return ix.BestScore(vcpus) }
