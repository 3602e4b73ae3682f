package fleet

import "vsched/internal/vtrace"

// The live-migration controller. Placement decisions age: a host that was
// quiet when a VM landed can turn into a steal hotspot as neighbours arrive.
// Every Migration.Every the controller compares smoothed per-host steal
// rates and moves one VM per pass from the worst hotspot to the calmest
// fitting host — the same telemetry the steal-aware policy uses at admission
// time, applied continuously.
//
// Mechanics: each vCPU entity is blocked (stop-and-copy brownout), re-homed
// onto a thread of the destination host — legal because every fleet host has
// an identical topology, so thread IDs mean the same thing everywhere — and
// woken after Downtime. The guest never notices beyond a burst of steal
// time and possibly different neighbours, which is exactly what its vSched
// instance is built to re-probe.

// migrationTick runs one controller pass and re-arms itself.
func (f *Fleet) migrationTick() {
	cfg := f.cfg.Migration
	f.migrateOnce()
	f.eng.After(cfg.Every, f.migrationTick)
}

// migrateOnce moves at most one VM from the hottest host to the calmest
// fitting one. Deterministic: hosts scan in index order, candidates in
// placement order.
func (f *Fleet) migrateOnce() {
	cfg := f.cfg.Migration
	src := -1
	for i, hs := range f.hosts {
		if len(hs.vms) == 0 || hs.stealEMA < cfg.MinSteal {
			continue
		}
		if src < 0 || hs.stealEMA > f.hosts[src].stealEMA {
			src = i
		}
	}
	if src < 0 {
		return
	}
	vm := f.pickMigrant(f.hosts[src])
	if vm == nil {
		return
	}
	dst := f.calmest(vm.typ.VCPUs, src, f.hosts[src].stealEMA-cfg.Margin)
	if dst < 0 {
		return
	}
	f.moveVM(vm, dst)
}

// calmest is the one destination rule of live migration and evacuation: the
// host, other than skip, that a VM of vcpus fits on and whose steal EMA is at
// most ceiling, with the lowest steal EMA, then the fewest committed vCPUs,
// then the lowest index. It returns -1 when no host qualifies.
func (f *Fleet) calmest(vcpus, skip int, ceiling float64) int {
	dst := -1
	for i, hs := range f.hosts {
		if i == skip || vcpus > f.free(hs) || hs.stealEMA > ceiling {
			continue
		}
		if dst < 0 || hs.stealEMA < f.hosts[dst].stealEMA ||
			(hs.stealEMA == f.hosts[dst].stealEMA && hs.committed < f.hosts[dst].committed) {
			dst = i
		}
	}
	return dst
}

// pickMigrant chooses the cheapest VM to move: fewest vCPUs, ties to the
// most recently placed (its cache state is coldest). VMs inside their
// post-move cooldown are exempt — without this, a hotspot that flips between
// two hosts faster than the steal EMAs settle shuttles the same VM back and
// forth (see TestMigrationCooldownStopsPingPong).
func (f *Fleet) pickMigrant(hs *hostState) *fleetVM {
	cool := f.cfg.Migration.Cooldown
	now := f.eng.Now()
	var best *fleetVM
	for _, vm := range hs.vms {
		if vm.migrating {
			continue
		}
		if cool > 0 && vm.moved && now.Sub(vm.lastMove) < cool {
			continue
		}
		if best == nil || vm.typ.VCPUs < best.typ.VCPUs ||
			(vm.typ.VCPUs == best.typ.VCPUs && vm.id > best.id) {
			best = vm
		}
	}
	return best
}

// moveVM live-migrates vm to the host at index dst.
func (f *Fleet) moveVM(vm *fleetVM, dst int) {
	src := f.hosts[vm.hostIdx]
	d := f.hosts[dst]
	src.release(vm.threads)
	src.removeVM(vm)
	f.reindex(src)
	newThreads := d.pickThreads(vm.typ.VCPUs)
	for i, v := range vm.gvm.VCPUs() {
		ent := v.Entity()
		ent.Block()
		ent.Migrate(d.h.Thread(newThreads[i]))
	}
	from := vm.hostIdx
	vm.hostIdx = dst
	vm.threads = newThreads
	vm.migrating = true
	vm.moved = true
	vm.lastMove = f.eng.Now()
	d.vms = append(d.vms, vm)
	f.reindex(d)
	f.migrations++
	f.reg.Counter("fleet.migrations").Inc()
	f.cfg.Tracer.Emit(f.eng.Now(), vtrace.KindVMMigrate, vm.name,
		int64(from), int64(dst), int64(vm.typ.VCPUs))

	f.eng.After(f.cfg.Migration.Downtime, func() {
		vm.migrating = false
		if !vm.alive {
			return
		}
		for _, v := range vm.gvm.VCPUs() {
			v.Entity().Wake()
		}
	})
}
