package guest

// CGroup is a cpuset-style task group: a named allowed-vCPU mask. vSched's
// rwc hides problematic vCPUs by shrinking the masks of user-facing groups
// while leaving prober groups untouched, exactly as the paper does with
// cgroup cpusets.
type CGroup struct {
	name    string
	n       int
	allowed cpumask
}

// newGroup returns a group of an n-vCPU VM allowing every vCPU.
func newGroup(name string, n int) *CGroup {
	g := &CGroup{name: name, n: n, allowed: newCPUMask(n)}
	for i := 0; i < n; i++ {
		g.allowed.set(i, true)
	}
	return g
}

// NewGroup creates a cgroup allowing all vCPUs.
func (vm *VM) NewGroup(name string) *CGroup { return newGroup(name, len(vm.vcpus)) }

// Name returns the group name.
func (g *CGroup) Name() string { return g.name }

// Allowed reports whether the group may use vCPU i.
func (g *CGroup) Allowed(i int) bool { return g.allowed.has(i) }

// AllowedMask returns a copy of the mask.
func (g *CGroup) AllowedMask() []bool {
	m := make([]bool, g.n)
	for i := range m {
		m[i] = g.allowed.has(i)
	}
	return m
}

// allowedMask returns the vCPUs task t may use: its pin, or its group's
// mask.
func (vm *VM) allowedMask(t *Task) cpumask {
	if t.affinity >= 0 {
		return vm.only[t.affinity]
	}
	return t.group.allowed
}

// allowedFor reports whether task t may run on vCPU v, combining its cgroup
// mask and per-task pinning.
func (vm *VM) allowedFor(t *Task, v *VCPU) bool {
	if t.affinity >= 0 {
		return t.affinity == v.id
	}
	return t.group.allowed.has(v.id)
}

// firstAllowed returns some vCPU task t may use (its pin, or the first set
// bit of its group mask); falls back to vCPU 0 on an empty mask.
func (vm *VM) firstAllowed(t *Task) *VCPU {
	if i := vm.allowedMask(t).next(0); i >= 0 {
		return vm.vcpus[i]
	}
	return vm.vcpus[0]
}

// SetGroupMask atomically replaces a group's allowed mask and evicts the
// group's tasks from newly banned vCPUs (queued tasks are re-placed at once;
// running tasks are detached via the stopper path when their vCPU is active,
// otherwise marked for eviction at the next opportunity by the balancer).
func (vm *VM) SetGroupMask(g *CGroup, mask []bool) {
	if len(mask) != len(vm.vcpus) {
		panic("guest: mask size mismatch")
	}
	any := false
	for _, ok := range mask {
		if ok {
			any = true
			break
		}
	}
	if !any {
		panic("guest: cgroup mask cannot be empty")
	}
	for i, ok := range mask {
		g.allowed.set(i, ok)
	}
	vm.evictBanned(g)
}

// evictBanned pushes a group's tasks off vCPUs the mask no longer allows.
func (vm *VM) evictBanned(g *CGroup) {
	for _, v := range vm.vcpus {
		if g.allowed.has(v.id) {
			continue
		}
		// Queued tasks: re-place immediately.
		var move []*Task
		for _, t := range v.rq {
			if t.group == g && t.affinity < 0 {
				move = append(move, t)
			}
		}
		for _, t := range move {
			dst := vm.selectCPU(t, vm.firstAllowed(t), nil)
			if dst != v {
				vm.MigrateQueued(t, dst)
			}
		}
		// Running task: detach if the vCPU is active; otherwise the
		// periodic balancer will retry.
		if t := v.curr; t != nil && t.group == g && t.affinity < 0 {
			dst := vm.selectCPU(t, vm.firstAllowed(t), nil)
			if dst != v {
				vm.PullRunning(v, dst, t)
			}
		}
	}
}
