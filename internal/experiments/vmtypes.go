package experiments

import (
	"vsched/internal/host"
	"vsched/internal/sim"
)

// VM types of §5.1. rcvm is the resource-constrained VM: 12 vCPUs — five
// SMT-sibling pairs plus one stacked pair — on a contended host, with two
// straggler vCPUs and two vCPUs in each of the four capacity/latency
// categories (hchl, hcll, lchl, lcll). hpvm is the high-performance VM: 32
// vCPUs over four sockets, three sockets mirroring rcvm's categories and one
// socket dedicated.

// Category duty parameters: capacity is the active share of the square
// wave, latency its inactive burst length.
type category struct {
	name  string
	share float64      // active fraction (capacity)
	burst sim.Duration // inactive burst (vCPU latency)
}

var (
	catHCHL      = category{"hchl", 0.70, 9 * sim.Millisecond}
	catHCLL      = category{"hcll", 0.70, 3 * sim.Millisecond}
	catLCHL      = category{"lchl", 0.35, 9 * sim.Millisecond}
	catLCLL      = category{"lcll", 0.35, 3 * sim.Millisecond}
	catStraggler = category{"straggler", 0.03, 15 * sim.Millisecond}
)

// apply installs the category's co-tenant on a thread: a CFS stressor whose
// weight sets the vCPU's fair share (capacity), with the host scheduling
// granularities tuned to the category's inactive-burst length (latency) —
// the same bandwidth-and-granularity control the paper uses.
func (cat category) apply(c *cluster, t *host.Thread) {
	if cat.share >= 0.999 {
		return // dedicated
	}
	weight := int64(float64(host.DefaultWeight) * (1 - cat.share) / cat.share)
	if weight < 1 {
		weight = 1
	}
	t.SetGranularities(cat.burst, 2*cat.burst)
	host.NewStressor(c.h, "tenant-"+cat.name, t, weight)
}

// rcvmCluster builds the rcvm host and VM threads: vCPU0..9 on five SMT
// pairs (cores 0-4), vCPU10,11 stacked on core 5 thread 0.
func rcvmCluster(o Options) (*cluster, []*host.Thread) {
	c := newCluster(o, 1, 6, 2)
	threads := make([]*host.Thread, 0, 12)
	for i := 0; i < 10; i++ {
		threads = append(threads, c.h.Thread(i))
	}
	stacked := c.h.ThreadAt(0, 5, 0)
	threads = append(threads, stacked, stacked)

	cats := []category{catHCHL, catHCHL, catHCLL, catHCLL, catLCHL, catLCHL, catLCLL, catLCLL, catStraggler, catStraggler}
	for i, cat := range cats {
		cat.apply(c, c.h.Thread(i))
	}
	return c, threads
}

// hpvmCluster builds the hpvm host and VM threads: sockets 0-2 carry the
// four categories (one SMT pair each), socket 3 is dedicated.
func hpvmCluster(o Options) (*cluster, []*host.Thread) {
	c := newCluster(o, 4, 4, 2)
	var threads []*host.Thread
	cats := []category{catHCHL, catHCLL, catLCHL, catLCLL}
	for s := 0; s < 4; s++ {
		for core := 0; core < 4; core++ {
			for slot := 0; slot < 2; slot++ {
				th := c.h.ThreadAt(s, core, slot)
				threads = append(threads, th)
				if s < 3 {
					cats[core].apply(c, th)
				}
			}
		}
	}
	return c, threads
}

// BuildRCVM deploys the resource-constrained VM under a configuration.
func BuildRCVM(o Options, cfg Config) (*cluster, *deployment) {
	c, threads := rcvmCluster(o)
	return c, deploy(c, "rcvm", threads, cfg)
}

// BuildHPVM deploys the high-performance VM under a configuration.
func BuildHPVM(o Options, cfg Config) (*cluster, *deployment) {
	c, threads := hpvmCluster(o)
	return c, deploy(c, "hpvm", threads, cfg)
}
