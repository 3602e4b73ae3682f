package guest

// CPU selection — the stock CFS wakeup path, operating on *believed*
// topology and capacity. Its quality therefore depends entirely on how
// accurate the vCPU abstraction is, which is the paper's point: with the
// default belief (symmetric, flat, always-active vCPUs) these heuristics
// misfire; with vProbers feeding them they work as designed.

// fitsCapacity is CFS's capacity_fits test: the believed capacity must
// exceed the task's utilisation with 20% headroom.
func fitsCapacity(util float64, cap int64) bool {
	return float64(cap) >= util*1.2
}

// load returns the runqueue load of v: the weight sum of the running and
// queued tasks.
func (v *VCPU) load() int64 {
	var l int64
	if v.curr != nil {
		l += v.curr.weight
	}
	for _, t := range v.rq {
		l += t.weight
	}
	return l
}

// loadPerCapacity is the balancing metric: load scaled by believed capacity.
func (v *VCPU) loadPerCapacity() float64 {
	c := v.Capacity()
	if c <= 0 {
		c = 1
	}
	return float64(v.load()) * 1024 / float64(c)
}

// nrRunning counts installed plus queued tasks.
func (v *VCPU) nrRunning() int {
	n := len(v.rq)
	if v.curr != nil {
		n++
	}
	return n
}

// coreGroupIdle reports whether every vCPU sharing i's believed core group
// is guest-idle (an "idle core" in SMT-aware selection).
func (vm *VM) coreGroupIdle(i int) bool { return vm.coreMask[i].subsetOf(vm.idle) }

// selectCPU picks the vCPU for a waking task. The vSched hook (bvs) runs
// first; the stock heuristic is the fallback.
func (vm *VM) selectCPU(t *Task, prev *VCPU, waker *VCPU) *VCPU {
	if t.affinity >= 0 {
		return vm.vcpus[t.affinity]
	}
	if vm.hooks.SelectCPU != nil {
		if r := vm.hooks.SelectCPU(t, prev); r != nil && vm.allowedFor(t, r) {
			return r
		}
	}
	return vm.selectCPUDefault(t, prev, waker)
}

func (vm *VM) selectCPUDefault(t *Task, prev *VCPU, waker *VCPU) *VCPU {
	util := t.Util()
	target := prev
	if target == nil || !vm.allowedFor(t, target) {
		target = vm.firstAllowed(t)
	}
	// Wake affinity: a light wakee whose previous CPU sits in a different
	// believed LLC domain than its waker follows the waker (the waker
	// produced the data it will consume) — but, like wake_affine, only when
	// the waker's domain isn't clearly busier; otherwise affinity would
	// drag whole workloads into one overloaded socket and trap them there.
	if waker != nil && vm.allowedFor(t, waker) && util <= 800 &&
		!vm.topo.SameSocket(target.id, waker.id) &&
		vm.socketLoad(waker.id) <= vm.socketLoad(target.id)*5/4+256 {
		target = waker
	}
	// Fast path: target CPU, if idle with an idle believed core.
	if vm.allowedFor(t, target) && target.GuestIdle() &&
		vm.coreGroupIdle(target.id) && fitsCapacity(util, target.Capacity()) {
		return target
	}
	domain := vm.sockMask[target.id]

	// SMT-aware scan: a fully idle core beats a thread whose sibling is
	// busy, and either beats an idle vCPU without capacity fit. Without SMT
	// belief every vCPU is its own core and this is just an idle-vCPU scan
	// with capacity fit.
	if pick := vm.scanIdle(t, util, target.id, domain); pick != nil {
		return pick
	}
	// Any idle vCPU in the domain, ignoring fit.
	if i := nextAnd(0, vm.idle, domain, vm.allowedMask(t)); i >= 0 {
		return vm.vcpus[i]
	}
	// Overloaded domain: least loaded allowed vCPU, domain first then VM.
	if pick := vm.leastLoaded(t, domain); pick != nil {
		return pick
	}
	if pick := vm.leastLoaded(t, vm.all); pick != nil {
		return pick
	}
	return vm.firstAllowed(t)
}

// scanIdle looks for an allowed guest-idle vCPU of domain with capacity
// fit, scanning from `start` and wrapping (like select_idle_sibling's
// target-relative scan). The first candidate whose whole believed core is
// idle wins; failing that, the first candidate that fits. Candidates come
// from idle ∧ domain ∧ allowed in the rotated order a walk over every vCPU
// would visit them, so the pick is the same as that walk's.
func (vm *VM) scanIdle(t *Task, util float64, start int, domain cpumask) *VCPU {
	if !fitsCapacity(util, vm.capCeil) {
		return nil
	}
	allowed := vm.allowedMask(t)
	var fit *VCPU
	for _, span := range [2][2]int{{start, len(vm.vcpus)}, {0, start}} {
		for i := nextAnd(span[0], vm.idle, domain, allowed); i >= 0 && i < span[1]; i = nextAnd(i+1, vm.idle, domain, allowed) {
			v := vm.vcpus[i]
			if !fitsCapacity(util, v.Capacity()) {
				continue
			}
			if vm.coreGroupIdle(i) {
				return v
			}
			if fit == nil {
				fit = v
			}
		}
	}
	return fit
}

// socketLoad returns the average load-to-capacity (scaled by 1024) of the
// believed socket containing vCPU id.
func (vm *VM) socketLoad(id int) int64 {
	// Recomputed in ascending id order on every call: a running float sum
	// would add in a different order and round differently.
	m := vm.sockMask[id]
	var sum float64
	var n int64
	for j := m.next(0); j >= 0; j = m.next(j + 1) {
		sum += vm.vcpus[j].loadPerCapacity()
		n++
	}
	return int64(sum) / n
}

// selectCPUFork is the fork/exec placement path (find_idlest_cpu): choose
// the least loaded believed socket, then an idle vCPU inside it.
func (vm *VM) selectCPUFork(t *Task) *VCPU {
	var bestIDs []int
	bestLoad := 0.0
	bestCap := int64(0)
	for _, ids := range vm.sockets {
		var load float64
		var cap int64
		allowed := false
		for _, id := range ids {
			load += vm.vcpus[id].loadPerCapacity()
			cap += vm.vcpus[id].Capacity()
			if vm.allowedFor(t, vm.vcpus[id]) {
				allowed = true
			}
		}
		load /= float64(len(ids))
		if !allowed {
			continue
		}
		// Lower load wins; near-ties go to the socket with the larger
		// believed capacity (find_idlest_group considers both).
		better := bestIDs == nil || load < bestLoad-64 ||
			(load < bestLoad+64 && cap > bestCap)
		if better {
			bestIDs, bestLoad, bestCap = ids, load, cap
		}
	}
	if bestIDs == nil {
		return vm.firstAllowed(t)
	}
	sock := vm.sockMask[bestIDs[0]]
	if pick := vm.scanIdle(t, t.Util(), bestIDs[0], sock); pick != nil {
		return pick
	}
	if pick := vm.leastLoaded(t, sock); pick != nil {
		return pick
	}
	return vm.firstAllowed(t)
}

// leastLoaded returns the allowed vCPU of domain with the lowest
// load-to-capacity ratio, the lowest id on ties, or nil if none allowed.
func (vm *VM) leastLoaded(t *Task, domain cpumask) *VCPU {
	allowed := vm.allowedMask(t)
	var best *VCPU
	var bestLoad float64
	for i := nextAnd(0, domain, allowed, allowed); i >= 0; i = nextAnd(i+1, domain, allowed, allowed) {
		v := vm.vcpus[i]
		l := v.loadPerCapacity()
		if best == nil || l < bestLoad {
			best, bestLoad = v, l
		}
	}
	return best
}
