package guest

import (
	"fmt"
	"math/rand"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// maskFixture is a VM whose runqueues, belief, published capacities and
// group mask are set directly from a random stream, without running the
// simulation, so selection can be compared against a reference scan on
// states a short run would rarely reach.
type maskFixture struct {
	rng   *rand.Rand
	vm    *VM
	group *CGroup
	tasks []*Task
}

func newMaskFixture(n int, seed int64) *maskFixture {
	eng := sim.NewEngine(seed)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, (n+1)/2, 2
	h := host.New(eng, cfg)
	var threads []*host.Thread
	for i := 0; i < n; i++ {
		threads = append(threads, h.Thread(i))
	}
	vm := NewVM(h, "vm", threads, DefaultParams())
	return &maskFixture{rng: rand.New(rand.NewSource(seed)), vm: vm, group: vm.NewGroup("g")}
}

// task returns a fresh task with a random weight, utilisation, cache
// heat, and one time in six a pin.
func (f *maskFixture) task() *Task {
	vm, rng := f.vm, f.rng
	t := &Task{
		vm:       vm,
		id:       len(f.tasks) + 1,
		seq:      len(f.tasks) + 1,
		name:     "t",
		weight:   []int64{WeightIdle, WeightNormal, 2 * WeightNormal}[rng.Intn(3)],
		group:    f.group,
		affinity: -1,
		util:     rng.Float64() * 1024,
		lastPELT: vm.eng.Now(),
		lastRan:  vm.eng.Now() - sim.Time(rng.Intn(2))*sim.Time(vm.params.CacheHot),
	}
	if rng.Intn(6) == 0 {
		t.affinity = rng.Intn(len(vm.vcpus))
	}
	f.tasks = append(f.tasks, t)
	return t
}

// shuffle draws a new belief, group mask, set of published capacities and
// runqueue contents (idle, one running, running plus queued, queued only).
func (f *maskFixture) shuffle() {
	vm, rng := f.vm, f.rng
	n := len(vm.vcpus)
	b := DefaultBelief(n)
	sockets, cores := 1+rng.Intn(4), 1+rng.Intn(n)
	for i := 0; i < n; i++ {
		b.SocketOf[i] = rng.Intn(sockets)
		b.CoreOf[i] = rng.Intn(cores)
	}
	vm.SetTopology(b)
	for i := 0; i < n; i++ {
		f.group.allowed.set(i, rng.Intn(4) > 0)
	}
	f.group.allowed.set(rng.Intn(n), true)
	f.tasks = f.tasks[:0]
	busy := rng.Float64()
	for _, v := range vm.vcpus {
		v.pubCapacity = 0
		if rng.Intn(2) == 0 {
			v.PublishCapacity(1 + rng.Int63n(1300))
		}
		v.cfsCapacity = rng.Float64() * 1024
		v.curr, v.rq = nil, v.rq[:0]
		if rng.Float64() < busy {
			switch rng.Intn(3) {
			case 0:
				v.curr = f.task()
			case 1:
				v.curr = f.task()
				for k := rng.Intn(3); k >= 0; k-- {
					v.rq = append(v.rq, f.task())
				}
			case 2:
				for k := rng.Intn(3); k >= 0; k-- {
					v.rq = append(v.rq, f.task())
				}
			}
		}
		v.syncMasks()
	}
}

// --- reference scans: the selection paths as walks over every vCPU ---

func refAllowed(t *Task, i int) bool {
	if t.affinity >= 0 {
		return t.affinity == i
	}
	return t.group.Allowed(i)
}

func refFirstAllowed(vm *VM, t *Task) *VCPU {
	for i := range vm.vcpus {
		if refAllowed(t, i) {
			return vm.vcpus[i]
		}
	}
	return vm.vcpus[0]
}

func refCoreIdle(vm *VM, i int) bool {
	for j, v := range vm.vcpus {
		if vm.topo.CoreOf[j] == vm.topo.CoreOf[i] && !v.GuestIdle() {
			return false
		}
	}
	return true
}

func refSocketLoad(vm *VM, id int) int64 {
	var sum float64
	var n int64
	for j, v := range vm.vcpus {
		if vm.topo.SocketOf[j] == vm.topo.SocketOf[id] {
			sum += v.loadPerCapacity()
			n++
		}
	}
	return int64(sum) / n
}

func refScanIdle(vm *VM, t *Task, util float64, start, socket int, wantIdleCore bool) *VCPU {
	n := len(vm.vcpus)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		v := vm.vcpus[i]
		if vm.topo.SocketOf[i] != socket || !refAllowed(t, i) || !v.GuestIdle() {
			continue
		}
		if !fitsCapacity(util, v.Capacity()) || wantIdleCore && !refCoreIdle(vm, i) {
			continue
		}
		return v
	}
	return nil
}

func refLeastLoaded(vm *VM, t *Task, socket int) *VCPU {
	var best *VCPU
	var bestLoad float64
	for i, v := range vm.vcpus {
		if socket >= 0 && vm.topo.SocketOf[i] != socket || !refAllowed(t, i) {
			continue
		}
		if l := v.loadPerCapacity(); best == nil || l < bestLoad {
			best, bestLoad = v, l
		}
	}
	return best
}

func refSelectDefault(vm *VM, t *Task, prev, waker *VCPU) *VCPU {
	util := t.Util()
	target := prev
	if target == nil || !refAllowed(t, target.id) {
		target = refFirstAllowed(vm, t)
	}
	if waker != nil && refAllowed(t, waker.id) && util <= 800 &&
		vm.topo.SocketOf[target.id] != vm.topo.SocketOf[waker.id] &&
		refSocketLoad(vm, waker.id) <= refSocketLoad(vm, target.id)*5/4+256 {
		target = waker
	}
	if refAllowed(t, target.id) && target.GuestIdle() &&
		refCoreIdle(vm, target.id) && fitsCapacity(util, target.Capacity()) {
		return target
	}
	socket := vm.topo.SocketOf[target.id]
	for _, wantIdleCore := range []bool{true, false} {
		if pick := refScanIdle(vm, t, util, target.id, socket, wantIdleCore); pick != nil {
			return pick
		}
	}
	for i, v := range vm.vcpus {
		if vm.topo.SocketOf[i] == socket && refAllowed(t, i) && v.GuestIdle() {
			return v
		}
	}
	for _, s := range []int{socket, -1} {
		if pick := refLeastLoaded(vm, t, s); pick != nil {
			return pick
		}
	}
	return refFirstAllowed(vm, t)
}

func refSelectFork(vm *VM, t *Task) *VCPU {
	var bestIDs []int
	bestLoad := 0.0
	bestCap := int64(0)
	for _, ids := range vm.topo.Sockets() {
		var load float64
		var cap int64
		allowed := false
		for _, id := range ids {
			load += vm.vcpus[id].loadPerCapacity()
			cap += vm.vcpus[id].Capacity()
			allowed = allowed || refAllowed(t, id)
		}
		load /= float64(len(ids))
		if !allowed {
			continue
		}
		if bestIDs == nil || load < bestLoad-64 || (load < bestLoad+64 && cap > bestCap) {
			bestIDs, bestLoad, bestCap = ids, load, cap
		}
	}
	if bestIDs == nil {
		return refFirstAllowed(vm, t)
	}
	socket := vm.topo.SocketOf[bestIDs[0]]
	for _, wantIdleCore := range []bool{true, false} {
		if pick := refScanIdle(vm, t, t.Util(), bestIDs[0], socket, wantIdleCore); pick != nil {
			return pick
		}
	}
	if pick := refLeastLoaded(vm, t, socket); pick != nil {
		return pick
	}
	return refFirstAllowed(vm, t)
}

func refFindPullable(vm *VM, v *VCPU, sameDomain bool) *Task {
	now := vm.eng.Now()
	var busiest *VCPU
	for _, s := range vm.vcpus {
		if s == v || len(s.rq) == 0 || s.nrRunning() < 2 {
			continue
		}
		if (vm.topo.SocketOf[s.id] == vm.topo.SocketOf[v.id]) != sameDomain {
			continue
		}
		if !sameDomain && len(s.rq) < 2 {
			continue
		}
		if busiest == nil || s.load() > busiest.load() {
			busiest = s
		}
	}
	if busiest == nil {
		return nil
	}
	var hot *Task
	for _, t := range busiest.rq {
		if !refAllowed(t, v.id) {
			continue
		}
		if now.Sub(t.lastRan) >= vm.params.CacheHot {
			return t
		}
		hot = t
	}
	if hot != nil && len(busiest.rq) > 1 {
		return hot
	}
	return nil
}

func vcpuID(v *VCPU) int {
	if v == nil {
		return -1
	}
	return v.id
}

// TestSelectionMatchesReference compares the mask-driven wake, fork and pull
// paths with walks over every vCPU, on random beliefs, group masks, pins,
// published capacities and runqueue states. 65 vCPUs puts the last one in
// a second mask word.
func TestSelectionMatchesReference(t *testing.T) {
	for _, n := range []int{1, 16, 64, 65} {
		t.Run(fmt.Sprintf("vcpus=%d", n), func(t *testing.T) {
			f := newMaskFixture(n, int64(n))
			vm := f.vm
			for round := 0; round < 300; round++ {
				f.shuffle()
				checkMasks(t, vm)
				for q := 0; q < 8; q++ {
					tk := f.task()
					var prev, waker *VCPU
					if f.rng.Intn(4) > 0 {
						prev = vm.vcpus[f.rng.Intn(n)]
					}
					if f.rng.Intn(2) == 0 {
						waker = vm.vcpus[f.rng.Intn(n)]
					}
					if got, want := vm.selectCPUDefault(tk, prev, waker), refSelectDefault(vm, tk, prev, waker); got != want {
						t.Fatalf("round %d: selectCPUDefault picked v%d, reference v%d", round, vcpuID(got), vcpuID(want))
					}
					if got, want := vm.selectCPUFork(tk), refSelectFork(vm, tk); got != want {
						t.Fatalf("round %d: selectCPUFork picked v%d, reference v%d", round, vcpuID(got), vcpuID(want))
					}
				}
				for _, v := range vm.vcpus {
					for _, same := range []bool{true, false} {
						if got, want := vm.findPullable(v, same), refFindPullable(vm, v, same); got != want {
							t.Fatalf("round %d: findPullable(v%d, %v) differs from reference", round, v.id, same)
						}
					}
				}
			}
		})
	}
}

// BenchmarkWakeSelect times the stock wakeup path, selectCPUDefault, on a
// VM with one believed socket whose lower half is busy and upper half idle:
// each op selects for a task whose previous vCPU is busy, so the idle scan
// runs past up to half the VM before it finds a target.
func BenchmarkWakeSelect(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("vcpus=%d", n), func(b *testing.B) {
			f := newMaskFixture(n, 1)
			vm := f.vm
			for i, v := range vm.vcpus {
				if i < n/2 {
					v.curr = f.task()
					v.curr.affinity = -1
				}
				v.PublishCapacity(1024)
				v.syncMasks()
			}
			tasks := make([]*Task, 64)
			for i := range tasks {
				tasks[i] = f.task()
				tasks[i].affinity = -1
				tasks[i].util = 300
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk := tasks[i%len(tasks)]
				if vm.selectCPUDefault(tk, vm.vcpus[i%(n/2)], nil) == nil {
					b.Fatal("no pick")
				}
			}
		})
	}
}
