package fleet

import (
	"fmt"
	"math"

	"vsched/internal/faults"
	"vsched/internal/metrics"
	"vsched/internal/sim"
)

// The fault-and-recovery core both fleet tiers share. Each tier keeps its
// own clock and mechanism (engine events on real entities in faultplane.go,
// epoch boundaries and a sorted retry queue in macro.go) and counts every
// fault, kill, restart, loss and outage-second through the code here.

// faultWindows are one host's fault windows, all zero without a fault
// schedule. The host is down (crashed) while downUntil > now, degraded to
// degradeFactor x capacity while degradedUntil > now, and frozen while
// stallUntil > now.
type faultWindows struct {
	downUntil     sim.Time
	degradedUntil sim.Time
	stallUntil    sim.Time
	degradeFactor float64
}

// open starts fault ev's window. A crash only ever extends the outage; a
// brownout or stall replaces the window of its kind.
func (w *faultWindows) open(ev faults.Event) {
	until := ev.Until()
	switch ev.Kind {
	case faults.Crash:
		if until > w.downUntil {
			w.downUntil = until
		}
	case faults.Brownout:
		w.degradedUntil = until
		w.degradeFactor = ev.Factor
	case faults.Stall:
		w.stallUntil = until
	}
}

// effCap is the effective admission capacity at now of a host configured
// for capacity. The comparisons are strict, so a window no longer counts at
// its end instant.
func (w *faultWindows) effCap(capacity int, now sim.Time) int {
	if w.downUntil > now {
		return 0
	}
	if w.degradedUntil > now {
		return int(w.degradeFactor * float64(capacity))
	}
	return capacity
}

// faultHost returns the host fault ev strikes, panicking when the schedule
// names a host outside a fleet of n.
func faultHost(ev faults.Event, n int) int {
	if ev.Host < 0 || ev.Host >= n {
		panic(fmt.Sprintf("fleet: fault event host %d outside fleet of %d", ev.Host, n))
	}
	return ev.Host
}

// indexLeaf is a host's HostIndex leaf, given its policy row h (whose
// Capacity is the effective bound) and its configured capacity. The index
// tracks free = capacity - committed against the configured capacity, so
// degraded headroom is folded in by inflating committed with it; a down host
// scores +Inf (never NaN, which would poison BestScore pruning).
func indexLeaf(pol Policy, h HostInfo, capacity int) (committed int, score float64) {
	score = math.Inf(1)
	if h.Capacity > 0 {
		score = pol.Score(h)
	}
	return h.Committed + capacity - h.Capacity, score
}

// pick asks pol for a host for a vcpus-wide VM and returns it, or -1 when
// nothing fits. Both tiers reindex a host on every change to its commitment
// and at every fault window's opening, so a leaf never promises more room
// than its host has. A pick outside the fleet, or onto a leaf without room,
// breaks the Policy contract and panics.
func pick(pol Policy, ix *HostIndex, vcpus int) int {
	hi := pol.Place(ix, vcpus)
	if hi < -1 || hi >= ix.Len() || hi >= 0 && ix.Free(hi) < vcpus {
		panic(fmt.Sprintf("fleet: policy %s placed a %d-vCPU VM on host %d, outside [-1, %d) or without room",
			pol.Name(), vcpus, hi, ix.Len()))
	}
	return hi
}

// FaultOutcome is a run's fault-plane outcome, counted the same way in both
// tiers. Crashes, Brownouts and Stalls count applied host fault events;
// Killed VM kills by crashes (a VM crashing twice counts twice); Restarts
// re-placements of crash victims; Lost terminal losses (retry budget, queue
// overflow, or every crash victim when recovery is off); Evacuations VM
// moves off degraded hosts; EvacFailures evacuation attempts the
// migration-failure law aborted. PendingAtEnd counts VMs still in the retry
// queue at the horizon, RunningAtEnd VMs alive there. Conservation holds
// exactly, and the run panics otherwise: every VM that entered the tier
// departed, was lost or rejected, or is pending or running.
type FaultOutcome struct {
	Crashes, Brownouts, Stalls int
	Killed, Restarts, Lost     int
	Evacuations, EvacFailures  int
	PendingAtEnd, RunningAtEnd int
	// Availability is committed vCPU-seconds over committed plus crash-
	// outage vCPU-seconds (1.0 when no outage accrued); DownVCPUHours is the
	// outage side. MTTRMean/MTTRMax summarize restart time-to-recover in
	// seconds.
	Availability      float64
	DownVCPUHours     float64
	MTTRMean, MTTRMax float64
}

// recoveryLedger accumulates one run's FaultOutcome and mirrors each count
// into the tier's registry under prefix ("fleet." or "fleet.macro."),
// creating a counter on its first increment. migAttempts numbers evacuation
// attempts for the migration-failure law. up accrues committed vCPU-seconds
// as the tier's clock advances; down accrues each crash victim's outage when
// it is restored, lost, or still pending at the end of the run.
type recoveryLedger struct {
	FaultOutcome
	reg             *metrics.Registry
	prefix          string
	migAttempts     uint64
	upVCPUSeconds   float64
	downVCPUSeconds float64
	ttrSum          float64
	ttrCount        int
}

// count bumps one of the ledger's counters and its registry mirror.
func (l *recoveryLedger) count(n *int, name string) {
	*n++
	l.reg.Counter(l.prefix + name).Inc()
}

// fault counts one applied host fault event.
func (l *recoveryLedger) fault(kind faults.Kind) {
	switch kind {
	case faults.Crash:
		l.count(&l.Crashes, "crashes")
	case faults.Brownout:
		l.count(&l.Brownouts, "brownouts")
	case faults.Stall:
		l.count(&l.Stalls, "stalls")
	}
}

// up accrues vcpus committed vCPUs held for seconds.
func (l *recoveryLedger) up(vcpus, seconds float64) { l.upVCPUSeconds += vcpus * seconds }

// outage accrues downtime seconds of a vcpus-wide crash victim.
func (l *recoveryLedger) outage(downtime float64, vcpus int) {
	l.downVCPUSeconds += downtime * float64(vcpus)
}

// restored records a vcpus-wide crash victim restarted ttr seconds after it
// went down.
func (l *recoveryLedger) restored(ttr float64, vcpus int) {
	l.count(&l.Restarts, "restarts")
	l.ttrSum += ttr
	l.ttrCount++
	l.MTTRMax = max(l.MTTRMax, ttr)
	l.outage(ttr, vcpus)
}

// lostAfter records the terminal loss of a vcpus-wide crash victim that was
// down for downtime seconds (0 when it is lost at the kill).
func (l *recoveryLedger) lostAfter(downtime float64, vcpus int) {
	l.count(&l.Lost, "lost")
	l.outage(downtime, vcpus)
}

// evacFails numbers one evacuation attempt and reports whether the
// schedule's migration-failure law aborts it, counting the failure.
func (l *recoveryLedger) evacFails(s *faults.Schedule) bool {
	l.migAttempts++
	if !s.MigrationFails(l.migAttempts) {
		return false
	}
	l.count(&l.EvacFailures, "evac_failures")
	return true
}

// census is where a run's VMs are at its end: how many entered the tier and
// how many sit in each terminal or live state.
type census struct {
	entered, departed, lost, rejected, pending, running int
}

// check is the conservation law. An imbalance is a simulator bug, so it
// panics.
func (c census) check(tier string) {
	if c.entered != c.departed+c.lost+c.rejected+c.pending+c.running {
		panic(fmt.Sprintf(
			"fleet: %s VM conservation violated: entered=%d departed=%d lost=%d rejected=%d pending=%d running=%d",
			tier, c.entered, c.departed, c.lost, c.rejected, c.pending, c.running))
	}
}

// outcome closes the ledger at the end of a run: it checks the conservation
// of c, whose losses are the ledger's, and completes the outcome.
func (l *recoveryLedger) outcome(tier string, c census) FaultOutcome {
	c.lost = l.Lost
	c.check(tier)
	o := l.FaultOutcome
	o.PendingAtEnd, o.RunningAtEnd = c.pending, c.running
	o.Availability = 1
	if l.upVCPUSeconds+l.downVCPUSeconds > 0 {
		o.Availability = l.upVCPUSeconds / (l.upVCPUSeconds + l.downVCPUSeconds)
	}
	o.DownVCPUHours = l.downVCPUSeconds / 3600
	if l.ttrCount > 0 {
		o.MTTRMean = l.ttrSum / float64(l.ttrCount)
	}
	return o
}
