// Harvest: the stalled-running-task problem and ivh's fix. A single batch
// job on a 16-vCPU VM whose vCPUs each own a 50% share: without ivh the job
// stalls whenever its vCPU is preempted; with ivh it hops to unused vCPUs
// and harvests their idle shares.
package main

import (
	"fmt"
	"log"

	"vsched"
)

func run(withIVH bool) float64 {
	cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 3, CoresPerSocket: 16})
	ids := make([]int, 16)
	for i := range ids {
		ids[i] = i
	}
	vm, err := cl.NewVM("batch", ids)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := cl.AddStressor(i, vsched.DefaultWeight); err != nil {
			log.Fatal(err)
		}
	}

	feats := vsched.Features{Vcap: true, Vact: true, IVH: withIVH}
	sched := cl.EnableVSched(vm, feats)

	job, err := cl.Workload(vm, sched, "blackscholes", 1)
	if err != nil {
		log.Fatal(err)
	}
	job.Start()

	cl.RunFor(5 * vsched.Second)
	before := job.Ops()
	cl.RunFor(20 * vsched.Second)
	return float64(job.Ops()-before) / 20
}

func main() {
	fmt.Println("single-threaded batch job, every vCPU at a 50% share:")
	off := run(false)
	on := run(true)
	fmt.Printf("  without ivh: %6.1f ops/s (the job stalls with its vCPU)\n", off)
	fmt.Printf("  with ivh:    %6.1f ops/s (migrates to active unused vCPUs)\n", on)
	fmt.Printf("  -> +%.0f%% throughput harvested from idle vCPU shares\n", 100*(on/off-1))
}
