package fleet

// HostInfo is the per-host snapshot a placement policy sees. Policies are
// control-plane code: they consult fleet bookkeeping (commitments) and
// guest-observable telemetry (steal), never host physics.
type HostInfo struct {
	Index     int
	Committed int     // vCPUs currently committed
	Capacity  int     // admission bound (overcommit * threads)
	VMs       int     // alive VMs placed here
	StealRate float64 // EMA steal fraction per thread, 0..~1
}

// Fits reports whether a VM of the given size can be admitted.
func (h HostInfo) Fits(vcpus int) bool { return h.Committed+vcpus <= h.Capacity }

// Policy decides where an arriving VM goes. Place returns a host index that
// Fits the request, or -1 to reject. Implementations must be deterministic
// pure functions of the snapshot: ranked policies break every tie toward the
// lowest host ID, snapshots arrive in stable host-ID order (never map
// iteration), and heterogeneous Capacity values must not disturb either
// property — the cluster may mix host classes (see internal/cloudgen).
// Place must not retain hosts: both fleet tiers refill one scratch slice for
// every placement, so the snapshot is only valid for the call.
// Policies that also implement IndexedPolicy (see index.go) are placed
// through a HostIndex in O(log hosts) instead of this linear scan.
type Policy interface {
	Name() string
	Place(hosts []HostInfo, vcpus int) int
}

// FirstFit packs: the lowest-indexed host with room wins. The classic
// fragmentation-averse default — and the policy that piles neighbours onto
// the same threads while later hosts idle.
type FirstFit struct{}

func (FirstFit) Name() string { return "first-fit" }

func (FirstFit) Place(hosts []HostInfo, vcpus int) int {
	for _, h := range hosts {
		if h.Fits(vcpus) {
			return h.Index
		}
	}
	return -1
}

// LeastLoaded spreads (worst-fit): the fitting host with the fewest
// committed vCPUs wins, ties to the lower index — explicitly by absolute
// commitments, not utilization, so on a heterogeneous fleet equal-committed
// hosts of different capacities still tie and resolve by host ID. Balances
// *promised* capacity, blind to how much of it is actually being fought
// over.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "least-loaded" }

func (LeastLoaded) Place(hosts []HostInfo, vcpus int) int {
	best := -1
	for _, h := range hosts {
		if !h.Fits(vcpus) {
			continue
		}
		if best < 0 || h.Committed < hosts[best].Committed {
			best = h.Index
		}
	}
	return best
}

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
// utilization) resolve to the lower host ID via the strict comparison.
type StealAware struct{}

func (StealAware) Name() string { return "steal-aware" }

func (StealAware) Place(hosts []HostInfo, vcpus int) int {
	best := -1
	bestScore := 0.0
	for _, h := range hosts {
		if !h.Fits(vcpus) {
			continue
		}
		score := h.StealRate + 0.1*float64(h.Committed)/float64(h.Capacity)
		if best < 0 || score < bestScore {
			best, bestScore = h.Index, score
		}
	}
	return best
}
