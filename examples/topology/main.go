// Topology: vtop probing in action. An 8-vCPU VM spans two sockets with SMT
// pairs and one stacked pair; the hypervisor exposes none of that. vtop
// measures cache-line transfer latencies, classifies every pair, and
// publishes the real topology to the scheduler.
package main

import (
	"fmt"
	"log"

	"vsched"
)

func main() {
	cl, err := vsched.NewCluster(vsched.ClusterConfig{
		Seed: 5, Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2, SMT: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	h := cl.Host()
	// vCPU -> hardware thread: two SMT pairs in socket 0, one SMT pair in
	// socket 1, and vCPUs 6,7 stacked on one thread.
	threads := []int{
		int(h.ThreadAt(0, 0, 0).ID()), int(h.ThreadAt(0, 0, 1).ID()),
		int(h.ThreadAt(0, 1, 0).ID()), int(h.ThreadAt(0, 1, 1).ID()),
		int(h.ThreadAt(1, 0, 0).ID()), int(h.ThreadAt(1, 0, 1).ID()),
		int(h.ThreadAt(1, 1, 0).ID()), int(h.ThreadAt(1, 1, 0).ID()),
	}
	vm, err := cl.NewVM("probe-me", threads)
	if err != nil {
		log.Fatal(err)
	}
	sched := cl.EnableVSched(vm, vsched.Features{Vtop: true})

	cl.RunFor(5 * vsched.Second) // bootstrap full probe + validations

	vt := sched.Vtop()
	fmt.Printf("full probe took %v, validation %v\n\n", vt.LastFullTime(), vt.LastValidateTime())

	fmt.Println("probed cache-line transfer latency matrix (ns, 'inf' = stacked):")
	m := vt.Matrix()
	fmt.Print("      ")
	for j := range m {
		fmt.Printf("v%-5d", j)
	}
	fmt.Println()
	for i := range m {
		fmt.Printf("v%-5d", i)
		for j := range m[i] {
			switch {
			case i == j:
				fmt.Printf("%-6s", "-")
			case m[i][j] > 1<<40:
				fmt.Printf("%-6s", "inf")
			default:
				fmt.Printf("%-6d", m[i][j])
			}
		}
		fmt.Println()
	}

	b := vt.Belief()
	fmt.Println("\ndiscovered topology:")
	for _, group := range b.Sockets() {
		fmt.Printf("  socket group %v\n", group)
	}
	for _, g := range b.StackGroups() {
		fmt.Printf("  stacked vCPUs: %v\n", g)
	}
	fmt.Println("\nthe scheduler now sees the real SMT/LLC/stacking structure;")
	fmt.Println("rwc would hide one vCPU of each stacked pair from task placement.")
}
