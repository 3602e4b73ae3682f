// Extensions: the three features the paper's discussion sections sketch,
// working together — the EEVDF guest scheduler (§4), tunable
// auto-configuration (§6), and LLC-share probing (§8).
package main

import (
	"fmt"
	"log"

	"vsched"
)

func main() {
	cl := vsched.NewCluster(vsched.ClusterConfig{
		Seed: 11, Sockets: 2, CoresPerSocket: 4,
	})

	// An EEVDF guest: same VM, different task-picking policy.
	gp := vsched.DefaultGuestParams()
	gp.Policy = vsched.PolicyEEVDF
	vm, err := cl.NewVMWithParams("eevdf-vm", []int{0, 1, 2, 3, 4, 5, 6, 7}, gp)
	if err != nil {
		log.Fatal(err)
	}

	// Long contention cycles on socket 1: 60ms bursts, so the default
	// 100ms sampling period aliases badly.
	for i := 4; i < 8; i++ {
		_, err := cl.AddPatternContender(i, 60*vsched.Millisecond, 60*vsched.Millisecond,
			vsched.Duration(i)*17*vsched.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
	}

	// vSched with the cache prober enabled; its hooks attach to EEVDF
	// exactly as they do to CFS.
	feats := vsched.AllFeatures()
	feats.Vllc = true
	sched := cl.EnableVSched(vm, feats)

	// Cache-hungry residents pinned on socket 0: 24 MB of working set
	// against a 16 MB LLC.
	for i := 0; i < 3; i++ {
		vm.Spawn(fmt.Sprintf("cachehog%d", i),
			func(vsched.Time) vsched.Segment { return vsched.ComputeForever() },
			vsched.WithAffinity(i), vsched.WithFootprint(8))
	}

	cl.RunFor(12 * vsched.Second)

	fmt.Printf("guest policy: %v\n\n", gp.Policy)

	before := sched.Params()
	tuned := sched.AutoTune()
	fmt.Println("auto-tuning against 120ms host activity cycles:")
	fmt.Printf("  vcap sampling period: %v -> %v\n", before.SamplePeriod, tuned.SamplePeriod)
	fmt.Printf("  light sampling every: %v -> %v\n", before.LightEvery, tuned.LightEvery)
	fmt.Printf("  ivh migration threshold: %v -> %v\n", before.IVHMinRun, tuned.IVHMinRun)

	fmt.Println("\nprobed effective LLC share per socket:")
	fmt.Printf("  socket 0 (cache-hungry): %.2f\n", sched.CacheShare(0))
	fmt.Printf("  socket 1 (clean):        %.2f\n", sched.CacheShare(4))
}
