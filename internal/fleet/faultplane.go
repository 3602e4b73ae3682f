package fleet

import (
	"fmt"
	"math"

	"vsched/internal/faults"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// The micro fleet's fault plane. The macro tier quantizes fault windows to
// the epoch grid (macro.go); here every fault fires as an engine event at its
// exact scheduled instant and acts on real entities:
//
//   - Crash: every resident VM is killed on the spot — workload stopped,
//     vCPU entities blocked, threads released. The host admits nothing until
//     the outage expires. With recovery, victims queue for restart with
//     capped exponential backoff; without, they are terminally lost.
//   - Brownout: the host's admission bound shrinks to factor x capacity for
//     the duration. With recovery, resident VMs evacuate through live
//     migration (stop-and-copy, the same moveVM the controller uses) until
//     the host fits again; a VM with nowhere to go stays put — graceful
//     degradation, visible as steal.
//   - Stall: every resident vCPU entity blocks for the duration and wakes
//     after — a transient freeze, pure steal from the guest's viewpoint.
//
// Everything runs inside the cell's single engine, so fault handling is
// deterministic by construction; the fleetscale/faulttol experiments pin it.

// microRetry is one crash victim waiting for restart.
type microRetry struct {
	id        int
	typ       VMType
	deadline  sim.Time // original departure deadline; zero = pinned to horizon
	downSince sim.Time
	vcpus     int
	attempt   int
}

// scheduleFaults validates the schedule against the cluster and arms one
// engine event per fault (plus one per recovery edge, for rescoring).
func (f *Fleet) scheduleFaults() {
	sched := f.cfg.Faults
	if sched == nil {
		return
	}
	for i := range sched.Events {
		ev := sched.Events[i]
		faultHost(ev, len(f.hosts))
		f.eng.At(ev.At, func() { f.applyFault(ev) })
		f.eng.At(ev.Until(), func() { f.recoverFault(ev) })
	}
}

// hostName renders the stable per-host subject used by fault trace events.
func hostName(i int) string { return fmt.Sprintf("host%02d", i) }

// applyFault executes one fault event at its scheduled instant.
func (f *Fleet) applyFault(ev faults.Event) {
	hs := f.hosts[ev.Host]
	now := f.eng.Now()
	f.cfg.Tracer.Emit(now, vtrace.KindHostFault, hostName(ev.Host),
		int64(ev.Kind), int64(ev.Duration), int64(ev.Factor*1e6))
	f.ledger.fault(ev.Kind)
	hs.open(ev)
	switch ev.Kind {
	case faults.Crash:
		victims := append([]*fleetVM(nil), hs.vms...)
		for _, vm := range victims {
			f.kill(vm, now)
		}
	case faults.Brownout:
		f.reindex(hs)
		f.evacuate(hs)
	case faults.Stall:
		var blocked []*fleetVM
		for _, vm := range hs.vms {
			if vm.migrating {
				continue // its own wake is already scheduled
			}
			for _, v := range vm.gvm.VCPUs() {
				v.Entity().Block()
			}
			blocked = append(blocked, vm)
		}
		f.eng.At(ev.Until(), func() {
			for _, vm := range blocked {
				// Killed since (kill blocks entities for good) or mid-
				// migration (its own wake pending): leave it alone. Wake is
				// a no-op on entities something else already resumed.
				if !vm.alive || vm.migrating {
					continue
				}
				for _, v := range vm.gvm.VCPUs() {
					v.Entity().Wake()
				}
			}
		})
	}
	f.reindex(hs)
}

// recoverFault marks the end of a fault window: capacity is back (the strict
// > in effCap already excludes now), so rescore the host for placement.
func (f *Fleet) recoverFault(ev faults.Event) {
	hs := f.hosts[ev.Host]
	f.cfg.Tracer.Emit(f.eng.Now(), vtrace.KindHostRecover, hostName(ev.Host),
		int64(ev.Kind), 0, 0)
	f.reindex(hs)
}

// kill destroys vm where it stands after its host crashed: the workload
// stops, the entities freeze, the slots free. With recovery the VM joins the
// bounded retry queue; without, it is terminally lost.
func (f *Fleet) kill(vm *fleetVM, now sim.Time) {
	if !vm.alive {
		return
	}
	vm.alive = false
	vm.inst.(stopper).Stop()
	for _, v := range vm.gvm.VCPUs() {
		v.Entity().Block()
	}
	f.unplace(vm)
	f.ledger.count(&f.ledger.Killed, "killed")
	f.cfg.Tracer.Emit(now, vtrace.KindVMCrash, vm.name,
		int64(vm.hostIdx), int64(vm.typ.VCPUs), 0)
	if !f.rcv.Enabled {
		f.lose(vm.name, 2, vm.typ.VCPUs, 0)
		return
	}
	if len(f.pending) >= f.rcv.QueueCap {
		f.lose(vm.name, 1, vm.typ.VCPUs, 0)
		return
	}
	e := &microRetry{
		id:        vm.id,
		typ:       vm.typ,
		deadline:  vm.deadline,
		downSince: now,
		vcpus:     vm.typ.VCPUs,
		attempt:   1,
	}
	f.pending = append(f.pending, e)
	f.reg.Counter("fleet.retry_queued").Inc()
	f.eng.At(now.Add(f.rcv.Backoff(1)), func() { f.retry(e) })
}

// lose records the terminal loss of a VM down for downtime seconds (reason
// 0 = retry budget, 1 = queue overflow, 2 = recovery disabled).
func (f *Fleet) lose(name string, reason int, vcpus int, downtime float64) {
	f.ledger.lostAfter(downtime, vcpus)
	f.cfg.Tracer.Emit(f.eng.Now(), vtrace.KindVMLost, name, int64(reason), int64(vcpus), 0)
}

// unpend removes e from the pending list, preserving order.
func (f *Fleet) unpend(e *microRetry) {
	for i, p := range f.pending {
		if p == e {
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
			return
		}
	}
}

// retry attempts one restart of a crash victim.
func (f *Fleet) retry(e *microRetry) {
	now := f.eng.Now()
	// A VM whose service lifetime expired while it waited has nothing left
	// to restart; like one out of retries, it is lost with the downtime it
	// accrued.
	expired := e.deadline != 0 && e.deadline <= now
	hi := -1
	if !expired {
		hi = pick(f.cfg.Policy, f.ix, e.vcpus)
	}
	if hi < 0 && !expired && e.attempt < f.rcv.MaxRetries {
		e.attempt++
		f.eng.At(now.Add(f.rcv.Backoff(e.attempt)), func() { f.retry(e) })
		return
	}
	f.unpend(e)
	if hi < 0 {
		f.lose(fmt.Sprintf("vm%03d-%s-r", e.id, e.typ.Name), 0, e.vcpus, now.Sub(e.downSince).Seconds())
		return
	}
	f.restart(e, hi, now)
}

// restart re-places a crash victim on host hi as a fresh incarnation: new
// guest, new workload, the "-rN" name recording which restart this is.
// Service VMs keep their original departure deadline — the lifetime clock
// does not reset with the workload.
func (f *Fleet) restart(e *microRetry, hi int, now sim.Time) {
	a := Arrival{ID: e.id, Type: e.typ, At: now}
	name := fmt.Sprintf("vm%03d-%s-r%d", e.id, e.typ.Name, e.attempt)
	vm := f.spawn(a, hi, name)
	vm.deadline = e.deadline
	if e.deadline != 0 {
		f.eng.At(e.deadline, func() { f.depart(vm) })
	}
	f.ledger.restored(now.Sub(e.downSince).Seconds(), e.vcpus)
	f.cfg.Tracer.Emit(now, vtrace.KindVMRestart, name,
		int64(hi), int64(e.attempt), int64(now.Sub(e.downSince)))
}

// evacuate drains a degraded host through live migration until its
// commitment fits the shrunken capacity, newest resident first (coldest
// cache). Each attempt consults the migration-failure law; a failure abandons
// the host (it stays overcommitted — graceful degradation), as does finding
// no destination.
func (f *Fleet) evacuate(hs *hostState) {
	if !f.rcv.Enabled || f.cfg.Faults == nil {
		return
	}
	for f.free(hs) < 0 {
		var vm *fleetVM
		for i := len(hs.vms) - 1; i >= 0; i-- {
			if !hs.vms[i].migrating {
				vm = hs.vms[i]
				break
			}
		}
		if vm == nil {
			return
		}
		if f.ledger.evacFails(f.cfg.Faults) {
			return
		}
		dst := f.calmest(vm.typ.VCPUs, hs.index, math.Inf(1))
		if dst < 0 {
			return // nowhere to go: stay overcommitted, steal rises
		}
		f.moveVM(vm, dst)
		f.ledger.count(&f.ledger.Evacuations, "evacuations")
	}
}

// accrueUp folds the piecewise-constant committed-vCPU integral up to now
// into the availability ledger. Call before any change to totCommitted.
func (f *Fleet) accrueUp(now sim.Time) {
	if now > f.lastCommChange {
		f.ledger.up(float64(f.totCommitted), now.Sub(f.lastCommChange).Seconds())
		f.lastCommChange = now
	}
}
