package guest

import (
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// Load balancing: new-idle pulls, periodic in-domain and cross-domain
// balancing, misfit (active) migration, and cgroup-mask enforcement. Like
// CPU selection, all decisions run on believed topology and capacity.

// newIdleBalance runs when a vCPU finds its runqueue empty: pull one queued
// task, preferring the believed LLC domain. This is what makes stock CFS
// work-conserving — and what drags tasks onto straggler or stacked vCPUs
// when the abstraction lies (Fig. 4); rwc counters it with cgroup masks.
func (vm *VM) newIdleBalance(v *VCPU) {
	if t := vm.findPullable(v, true); t != nil {
		vm.MigrateQueued(t, v)
		return
	}
	if t := vm.findPullable(v, false); t != nil {
		vm.MigrateQueued(t, v)
	}
}

// findPullable locates a queued task another vCPU can spare for v.
func (vm *VM) findPullable(v *VCPU, sameDomain bool) *Task {
	now := vm.eng.Now()
	var busiest *VCPU
	// Only overloaded queues are donors: pulling the sole runnable task of
	// another CPU gains nothing (and a lone task queued on an inactive vCPU
	// looks exactly like a running one from here).
	ov := vm.overloaded
	for i := ov.next(0); i >= 0; i = ov.next(i + 1) {
		s := vm.vcpus[i]
		if s == v {
			continue
		}
		same := vm.topo.SocketOf[s.id] == vm.topo.SocketOf[v.id]
		if same != sameDomain {
			continue
		}
		// Cross-domain pulls are conservative: only from queues of 2+.
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
	// Prefer tasks that aren't cache-hot; take a hot one only from a long
	// queue.
	var hot *Task
	for _, t := range busiest.rq {
		if !vm.allowedFor(t, v) {
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

// periodicBalance is the CFS rebalance pass: equalise load-to-capacity
// within each believed LLC domain, then across domains with a higher bar,
// then handle misfit tasks and cgroup evictions.
func (vm *VM) periodicBalance() {
	for _, socket := range vm.sockets {
		vm.balanceWithin(socket)
	}
	vm.balanceAcross()
	if vm.asymCapacityEnabled() {
		vm.misfitPass()
	}
	vm.capacityPressurePass()
	vm.smtBalancePass()
	vm.maskEnforcePass()
	vm.tr.Emit(vm.eng.Now(), vtrace.KindBalance, vm.name, int64(vm.ctr.migrations.Value()), 0, 0)
}

// smtBalancePass un-stacks heavy tasks from fully busy believed cores onto
// cores that are idle or host only light/sleeping work — the SMT-domain
// balancing that needs accurate core topology. With the default belief
// every vCPU is its own core, so this never fires under stock abstraction.
func (vm *VM) smtBalancePass() {
	// Core groups walk in first-appearance order, which fixes which
	// overloaded core unstacks first and which idle core receives. With as
	// many groups as vCPUs, no believed core has two members.
	if len(vm.coreGroups) == len(vm.vcpus) {
		return
	}
	now := vm.eng.Now()
	heavy := func(v *VCPU) bool {
		t := v.curr
		return t != nil && !t.idlePolicy && t.affinity < 0 && t.Util() >= 350
	}
	groupHeavy := func(members []*VCPU) int {
		n := 0
		for _, v := range members {
			if heavy(v) {
				n++
			}
		}
		return n
	}
	for _, members := range vm.coreGroups {
		if len(members) < 2 || groupHeavy(members) < 2 {
			continue
		}
		// Overloaded core: find a fully idle core group to take one runner.
		// Requiring every member idle keeps this from thrashing on the
		// transient idleness at the tail of barrier phases.
		var dst *VCPU
		for _, cand := range vm.coreGroups {
			allIdle := true
			for _, u := range cand {
				if !u.GuestIdle() {
					allIdle = false
					break
				}
			}
			if allIdle {
				dst = cand[0]
				break
			}
		}
		if dst == nil {
			return
		}
		for _, v := range members {
			if !heavy(v) {
				continue
			}
			t := v.curr
			if now.Sub(t.lastMigrate) < misfitMigrateCooldown || !vm.allowedFor(t, dst) {
				continue
			}
			vm.PullRunning(v, dst, t)
			break
		}
	}
}

// asymCapacityEnabled is the SD_ASYM_CPUCAPACITY analogue: misfit balancing
// only runs when the capacity abstraction itself is asymmetric. The default
// abstraction presents every vCPU as an identical full-capacity CPU, so
// stock CFS never engages its asymmetric-capacity machinery — publishing
// accurate, differing capacities (vcap) is what switches it on.
func (vm *VM) asymCapacityEnabled() bool {
	var min, max int64
	any := false
	for _, v := range vm.vcpus {
		if !v.HasAccurateCapacity() {
			return false
		}
		c := v.Capacity()
		if !any || c < min {
			min = c
		}
		if !any || c > max {
			max = c
		}
		any = true
	}
	return any && max*4 > min*5 // >25% spread
}

const imbalancePct = 1.25 // Linux's default 125%

// balanceWithin moves queued tasks from the most to the least loaded vCPU
// of one domain until roughly balanced (bounded moves per round).
func (vm *VM) balanceWithin(ids []int) {
	for moves := 0; moves < 2; moves++ {
		var busiest, idlest *VCPU
		for _, id := range ids {
			v := vm.vcpus[id]
			if v.nrRunning() >= 2 && (busiest == nil || v.loadPerCapacity() > busiest.loadPerCapacity()) {
				busiest = v
			}
			if idlest == nil || v.loadPerCapacity() < idlest.loadPerCapacity() {
				idlest = v
			}
		}
		if busiest == nil || idlest == nil || busiest == idlest {
			return
		}
		if len(busiest.rq) == 0 {
			return
		}
		if busiest.loadPerCapacity() <= idlest.loadPerCapacity()*imbalancePct {
			return
		}
		t := vm.pickMigratable(busiest, idlest)
		if t == nil {
			return
		}
		vm.MigrateQueued(t, idlest)
	}
}

// balanceAcross moves one queued task between believed sockets when the
// inter-domain imbalance is large.
func (vm *VM) balanceAcross() {
	sockets := vm.sockets
	if len(sockets) < 2 {
		return
	}
	loadOf := func(ids []int) float64 {
		var l float64
		for _, id := range ids {
			l += vm.vcpus[id].loadPerCapacity()
		}
		return l / float64(len(ids))
	}
	hi, lo := -1, -1
	for i := range sockets {
		if hi == -1 || loadOf(sockets[i]) > loadOf(sockets[hi]) {
			hi = i
		}
		if lo == -1 || loadOf(sockets[i]) < loadOf(sockets[lo]) {
			lo = i
		}
	}
	if hi == lo || loadOf(sockets[hi]) <= float64(loadOf(sockets[lo])*imbalancePct)+0.5 {
		return
	}
	var busiest *VCPU
	for _, id := range sockets[hi] {
		v := vm.vcpus[id]
		if len(v.rq) > 0 && v.nrRunning() >= 2 && (busiest == nil || v.loadPerCapacity() > busiest.loadPerCapacity()) {
			busiest = v
		}
	}
	if busiest == nil {
		return
	}
	var idlest *VCPU
	for _, id := range sockets[lo] {
		v := vm.vcpus[id]
		if idlest == nil || v.loadPerCapacity() < idlest.loadPerCapacity() {
			idlest = v
		}
	}
	if t := vm.pickMigratable(busiest, idlest); t != nil {
		vm.MigrateQueued(t, idlest)
	}
}

// pickMigratable chooses a queued task of src that dst may take, avoiding
// cache-hot tasks when possible.
func (vm *VM) pickMigratable(src, dst *VCPU) *Task {
	now := vm.eng.Now()
	var hot *Task
	for _, t := range src.rq {
		if !vm.allowedFor(t, dst) {
			continue
		}
		if now.Sub(t.lastRan) >= vm.params.CacheHot {
			return t
		}
		hot = t
	}
	return hot
}

// misfitMigrateCooldown rate-limits active migrations per task, like the
// balance-interval backoff in CFS.
const misfitMigrateCooldown = 200 * sim.Millisecond

// misfitPass performs CFS's misfit/active migration: a running task whose
// utilisation exceeds its vCPU's believed capacity moves to an idle vCPU
// with more. The move uses the stopper protocol, so it silently fails when
// the source vCPU is inactive — stock CFS cannot rescue stalled tasks. The
// scan starts at a rotating offset: which "bigger-looking" idle vCPU wins is
// arbitrary in real CFS too.
func (vm *VM) misfitPass() {
	now := vm.eng.Now()
	n := len(vm.vcpus)
	for _, v := range vm.vcpus {
		t := v.curr
		if t == nil || t.idlePolicy || t.affinity >= 0 {
			continue
		}
		if now.Sub(t.lastMigrate) < misfitMigrateCooldown {
			continue
		}
		util := t.Util()
		if fitsCapacity(util, v.Capacity()) {
			continue
		}
		var best *VCPU
		start := vm.eng.Rand().Intn(n)
		for k := 0; k < n; k++ {
			u := vm.vcpus[(start+k)%n]
			if u == v || !vm.allowedFor(t, u) || !u.GuestIdle() {
				continue
			}
			if u.Capacity() <= v.Capacity()*11/10 {
				continue
			}
			if best == nil || u.Capacity() > best.Capacity() {
				best = u
			}
		}
		if best != nil {
			vm.PullRunning(v, best, t)
		}
	}
}

// capacityPressurePass models CFS's active balancing away from
// capacity-reduced CPUs (need_active_balance's rt/steal-pressure case): a
// lone running task on a vCPU whose believed capacity has dropped well below
// nominal is pushed to an idle vCPU that *appears* to have more capacity.
// With the stock abstraction, idle vCPUs always appear stronger (no steal is
// observed while idle), so this keeps firing and produces the adverse
// migration churn of Fig. 11(b); honest vcap capacities make source and
// destination look equal and the churn stops.
func (vm *VM) capacityPressurePass() {
	now := vm.eng.Now()
	n := len(vm.vcpus)
	for _, v := range vm.vcpus {
		t := v.curr
		if t == nil || t.idlePolicy || t.affinity >= 0 || len(v.rq) > 0 {
			continue
		}
		if now.Sub(t.lastMigrate) < misfitMigrateCooldown {
			continue
		}
		srcCap := v.Capacity()
		if srcCap*5 >= 1024*4 { // not capacity-reduced (>= 80% of nominal)
			continue
		}
		var best *VCPU
		start := vm.eng.Rand().Intn(n)
		for k := 0; k < n; k++ {
			u := vm.vcpus[(start+k)%n]
			if u == v || !vm.allowedFor(t, u) || !u.GuestIdle() {
				continue
			}
			if u.Capacity()*10 <= srcCap*11 {
				continue // destination must look meaningfully stronger
			}
			if best == nil || u.Capacity() > best.Capacity() {
				best = u
			}
		}
		if best != nil {
			vm.PullRunning(v, best, t)
		}
	}
}

// maskEnforcePass retries evicting running tasks from vCPUs their cgroup no
// longer allows (the eviction at mask-change time fails when the vCPU was
// inactive).
func (vm *VM) maskEnforcePass() {
	for _, v := range vm.vcpus {
		t := v.curr
		if t == nil || vm.allowedFor(t, v) {
			continue
		}
		dst := vm.selectCPU(t, vm.firstAllowed(t), nil)
		if dst != v {
			vm.PullRunning(v, dst, t)
		}
	}
}
