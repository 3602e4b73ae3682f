package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"vsched"
	"vsched/internal/host"
	"vsched/internal/vtrace"
)

// transition is one host-level state change of a vCPU entity, as the ring
// tracer's host tap records it (KindEntityState: A0 = from, A1 = to).
type transition struct {
	at       vsched.Time
	from, to host.EntityState
}

// history is the part of one entity's state history that the ring still
// holds: its transitions in time order, and its state now.
type history struct {
	trans []transition
	now   host.EntityState
}

// stateAt returns the entity's state at time t: the from-state of its first
// transition after t, or its current state when there is none. The answer is
// exact whenever the ring holds every transition after t.
func (h history) stateAt(t vsched.Time) host.EntityState {
	if i := h.after(t); i < len(h.trans) {
		return h.trans[i].from
	}
	return h.now
}

// after returns the index of the first transition later than t.
func (h history) after(t vsched.Time) int {
	return sort.Search(len(h.trans), func(i int) bool { return h.trans[i].at > t })
}

// runningFraction returns the share of [from, to) the entity spent Running.
func (h history) runningFraction(from, to vsched.Time) float64 {
	if to <= from {
		return 0
	}
	var run vsched.Duration
	mark, cur := from, h.stateAt(from)
	for _, tr := range h.trans[h.after(from):] {
		if tr.at >= to {
			break
		}
		if cur == host.Running {
			run += tr.at.Sub(mark)
		}
		mark, cur = tr.at, tr.to
	}
	if cur == host.Running {
		run += to.Sub(mark)
	}
	return float64(run) / float64(to.Sub(from))
}

// render draws [from, to) as a width-character KernelShark-style strip:
// '#' Running, '.' Runnable (preempted), 't' Throttled, ' ' Blocked.
func (h history) render(width int, from, to vsched.Time) string {
	if width <= 0 || to <= from {
		return ""
	}
	var b strings.Builder
	span := to.Sub(from)
	for i := 0; i < width; i++ {
		switch h.stateAt(from.Add(vsched.Duration(int64(span) * int64(i) / int64(width)))) {
		case host.Running:
			b.WriteByte('#')
		case host.Runnable:
			b.WriteByte('.')
		case host.Throttled:
			b.WriteByte('t')
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// histories reads each entity's transitions after from out of the ring. ok
// is false when the ring has overwritten events it would need: some were
// dropped and the oldest one it kept is later than from.
func histories(ring *vtrace.Tracer, ents []*host.Entity, from vsched.Time) (hs []history, ok bool) {
	evs := ring.Events()
	if ring.Dropped() > 0 && evs[0].At > from {
		return nil, false
	}
	idx := make(map[string]int, len(ents))
	hs = make([]history, len(ents))
	for i, e := range ents {
		idx[e.Name()] = i
		hs[i].now = e.State()
	}
	for _, ev := range evs {
		if ev.Kind != vtrace.KindEntityState || ev.At <= from {
			continue
		}
		if i, ok := idx[ev.Subject]; ok {
			hs[i].trans = append(hs[i].trans, transition{
				at: ev.At, from: host.EntityState(ev.A0), to: host.EntityState(ev.A1),
			})
		}
	}
	return hs, true
}

// writeStrips prints one activity strip per vCPU entity over the final span
// before now, rendered from the ring. When the ring no longer holds that
// span it prints nothing to stdout and says so on stderr.
func writeStrips(stdout, stderr io.Writer, ring *vtrace.Tracer, ents []*host.Entity, now vsched.Time, span vsched.Duration) {
	from := now.Add(-span)
	hs, ok := histories(ring, ents, from)
	if !ok {
		fmt.Fprintf(stderr, "timeline: the trace ring dropped %d events and no longer holds the final %v; no strips printed\n",
			ring.Dropped(), time.Duration(span))
		return
	}
	fmt.Fprintf(stdout, "vCPU activity, final %v:\n", time.Duration(span))
	for i, h := range hs {
		fmt.Fprintf(stdout, "  v%-3d |%s|  running %2.0f%%\n", i,
			h.render(72, from, now), 100*h.runningFraction(from, now))
	}
}
