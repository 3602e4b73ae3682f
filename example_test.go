package vsched_test

import (
	"fmt"

	"vsched"
)

// Example builds the paper's core scenario end to end: a VM on a contended
// host, vSched attached, a workload measured. Deterministic by seed.
func Example() {
	cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 42, CoresPerSocket: 4})
	vm, err := cl.NewVM("demo", []int{0, 1, 2, 3})
	if err != nil {
		panic(err)
	}

	// A co-tenant on every core: each vCPU keeps a 50% fair share.
	for i := 0; i < 4; i++ {
		if _, err := cl.AddStressor(i, vsched.DefaultWeight); err != nil {
			panic(err)
		}
	}

	sched := cl.EnableVSched(vm, vsched.AllFeatures())
	cl.RunFor(5 * vsched.Second) // let the probers learn

	fmt.Println("probed capacity of vCPU0 ~512:", vm.VCPU(0).Capacity() > 400 && vm.VCPU(0).Capacity() < 620)
	fmt.Println("probed vCPU latency nonzero:", vm.VCPU(0).Latency() > 0)
	_ = sched
	// Output:
	// probed capacity of vCPU0 ~512: true
	// probed vCPU latency nonzero: true
}

// ExampleRunExperiment regenerates one of the paper's figures
// programmatically.
func ExampleRunExperiment() {
	rep, err := vsched.RunExperiment("fig3", vsched.ExperimentOptions{Seed: 42, Scale: 0.2})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.ID, "rows:", len(rep.Rows))
	// Output:
	// fig3 rows: 2
}

// ExampleCluster_Workload runs a catalogued benchmark on a plain-CFS VM.
func ExampleCluster_Workload() {
	cl := vsched.NewCluster(vsched.ClusterConfig{Seed: 1, CoresPerSocket: 2})
	vm, err := cl.NewVM("vm", []int{0, 1})
	if err != nil {
		panic(err)
	}
	inst, err := cl.Workload(vm, nil, "fio", 2)
	if err != nil {
		panic(err)
	}
	inst.Start()
	cl.RunFor(1 * vsched.Second)
	fmt.Println("fio made progress:", inst.Ops() > 1000)
	// Output:
	// fio made progress: true
}
