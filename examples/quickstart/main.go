// Quickstart: an 8-vCPU VM on a half-contended host serving a web workload,
// first under stock CFS, then with vSched — the zero-to-result version of
// the paper's story.
package main

import (
	"fmt"
	"log"

	"vsched"
)

func run(enable bool) (ops uint64, p95ms float64) {
	cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 7, CoresPerSocket: 8})
	vm, err := cl.NewVM("web", []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		log.Fatal(err)
	}

	// A co-tenant VM stresses every core: each of our vCPUs keeps only a
	// 50% share and suffers multi-millisecond inactive periods.
	for i := 0; i < 8; i++ {
		if _, err := cl.AddStressor(i, vsched.DefaultWeight); err != nil {
			log.Fatal(err)
		}
	}

	var sched *vsched.VSched
	if enable {
		sched = cl.EnableVSched(vm, vsched.AllFeatures())
	}

	// Nginx-like event loops: 4 workers each multiplexing 2 connections —
	// about half the vCPUs are busy at a time, so idle vCPUs (and their
	// unused shares) exist for vSched to exploit.
	srv, err := cl.NewServer(vm, sched, vsched.ServerConfig{
		Name: "web", Workers: 4, Connections: 8, Sticky: true,
		ServiceMean: 1500 * vsched.Microsecond, ServiceJit: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()

	cl.RunFor(6 * vsched.Second) // warmup: probers learn the vCPU dynamics
	srv.ResetStats()
	cl.RunFor(20 * vsched.Second)
	return srv.Ops(), float64(srv.E2E().P95()) / 1e6
}

func main() {
	fmt.Println("nginx on an 8-vCPU VM, every core 50% contended:")
	opsCFS, p95CFS := run(false)
	opsVS, p95VS := run(true)
	fmt.Printf("  stock CFS: %6d requests, p95 %6.2f ms\n", opsCFS, p95CFS)
	fmt.Printf("  vSched:    %6d requests, p95 %6.2f ms\n", opsVS, p95VS)
	fmt.Printf("  -> throughput %+.1f%%, p95 %+.1f%%\n",
		100*(float64(opsVS)/float64(opsCFS)-1), 100*(p95VS/p95CFS-1))
}
