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
func (vm *VM) coreGroupIdle(i int) bool {
	g := vm.topo.CoreOf[i]
	for j, v := range vm.vcpus {
		if vm.topo.CoreOf[j] == g && !v.GuestIdle() {
			return false
		}
	}
	return true
}

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
	domain := vm.topo.SocketOf[target.id]
	inDomain := func(v *VCPU) bool { return vm.topo.SocketOf[v.id] == domain }

	// SMT-aware scan: a fully idle core beats a thread whose sibling is
	// busy. Without SMT belief every vCPU is its own core and this pass is
	// just an idle-vCPU scan with capacity fit.
	if pick := vm.scanIdle(t, util, target.id, inDomain, true); pick != nil {
		return pick
	}
	// Any idle vCPU in the domain with capacity fit.
	if pick := vm.scanIdle(t, util, target.id, inDomain, false); pick != nil {
		return pick
	}
	// Any idle vCPU in the domain, ignoring fit.
	for _, v := range vm.vcpus {
		if inDomain(v) && vm.allowedFor(t, v) && v.GuestIdle() {
			return v
		}
	}
	// Overloaded domain: least loaded allowed vCPU, domain first then VM.
	if pick := vm.leastLoaded(t, inDomain); pick != nil {
		return pick
	}
	if pick := vm.leastLoaded(t, func(*VCPU) bool { return true }); pick != nil {
		return pick
	}
	return vm.firstAllowed(t)
}

// scanIdle looks for an allowed guest-idle vCPU with capacity fit, scanning
// from `start` and wrapping (like select_idle_sibling's target-relative
// scan); wantIdleCore additionally requires its whole believed core to be
// idle.
func (vm *VM) scanIdle(t *Task, util float64, start int, in func(*VCPU) bool, wantIdleCore bool) *VCPU {
	n := len(vm.vcpus)
	for k := 0; k < n; k++ {
		v := vm.vcpus[(start+k)%n]
		if !in(v) || !vm.allowedFor(t, v) || !v.GuestIdle() {
			continue
		}
		if !fitsCapacity(util, v.Capacity()) {
			continue
		}
		if wantIdleCore && !vm.coreGroupIdle(v.id) {
			continue
		}
		return v
	}
	return nil
}

// socketLoad returns the average load-to-capacity (scaled by 1024) of the
// believed socket containing vCPU id.
func (vm *VM) socketLoad(id int) int64 {
	g := vm.topo.SocketOf[id]
	var sum float64
	var n int64
	for j, v := range vm.vcpus {
		if vm.topo.SocketOf[j] == g {
			sum += v.loadPerCapacity()
			n++
		}
	}
	if n == 0 {
		return 0
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
	inSock := func(v *VCPU) bool { return vm.topo.SocketOf[v.id] == vm.topo.SocketOf[bestIDs[0]] }
	if pick := vm.scanIdle(t, t.Util(), bestIDs[0], inSock, true); pick != nil {
		return pick
	}
	if pick := vm.scanIdle(t, t.Util(), bestIDs[0], inSock, false); pick != nil {
		return pick
	}
	if pick := vm.leastLoaded(t, inSock); pick != nil {
		return pick
	}
	return vm.firstAllowed(t)
}

// leastLoaded returns the allowed vCPU with the lowest load-to-capacity
// ratio among those selected by in, or nil if none allowed.
func (vm *VM) leastLoaded(t *Task, in func(*VCPU) bool) *VCPU {
	var best *VCPU
	var bestLoad float64
	for _, v := range vm.vcpus {
		if !in(v) || !vm.allowedFor(t, v) {
			continue
		}
		l := v.loadPerCapacity()
		if best == nil || l < bestLoad {
			best, bestLoad = v, l
		}
	}
	return best
}
