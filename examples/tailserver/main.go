// Tailserver: the extended-runqueue-latency problem and bvs's fix. A
// latency-sensitive service runs on a VM whose vCPUs have asymmetric
// latency (half wait 3ms to get on CPU, half 6ms, all at 50% capacity);
// biased vCPU selection steers small requests to the low-latency half.
package main

import (
	"fmt"
	"log"

	"vsched"
)

func run(feats vsched.Features) (p95, queue95 float64) {
	cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 21, CoresPerSocket: 16})
	ids := make([]int, 16)
	for i := range ids {
		ids[i] = i
	}
	vm, err := cl.NewVM("svc", ids)
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 16; i++ {
		if _, err := cl.AddStressor(i, vsched.DefaultWeight); err != nil { // 50% share everywhere
			log.Fatal(err)
		}
		lat := 6 * vsched.Millisecond
		if i >= 8 {
			lat = 3 * vsched.Millisecond
		}
		if err := cl.SetVCPULatency(i, lat); err != nil {
			log.Fatal(err)
		}
	}

	sched := cl.EnableVSched(vm, feats)
	inst, err := cl.Workload(vm, sched, "masstree", 0)
	if err != nil {
		log.Fatal(err)
	}
	srv := inst.(*vsched.Server)
	srv.Start()

	cl.RunFor(8 * vsched.Second)
	srv.ResetStats()
	cl.RunFor(20 * vsched.Second)
	return float64(srv.E2E().P95()) / 1e6, float64(srv.Queue().P95()) / 1e6
}

func main() {
	probers := vsched.Features{Vcap: true, Vact: true, Vtop: true}
	withBVS := probers
	withBVS.BVS = true

	fmt.Println("masstree-like service, asymmetric vCPU latency (3ms vs 6ms):")
	p95A, q95A := run(probers)
	p95B, q95B := run(withBVS)
	fmt.Printf("  probers only: p95 %6.2f ms (queue %5.2f ms)\n", p95A, q95A)
	fmt.Printf("  with bvs:     p95 %6.2f ms (queue %5.2f ms)\n", p95B, q95B)
	fmt.Printf("  -> bvs cuts p95 by %.0f%%\n", 100*(1-p95B/p95A))
}
