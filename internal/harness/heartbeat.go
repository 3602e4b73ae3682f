package harness

import (
	"fmt"
	"io"
	"time"

	"vsched/internal/progress"
)

// heartbeatEvery rate-limits heartbeat lines.
const heartbeatEvery = 2 * time.Second

// Heartbeat is a reader of the progress bus that Run publishes to (the
// experiments CLI's -progress): it writes one plain-text line to w every
// heartbeatEvery (trials done/total, failures, mean trial wall time, ETA),
// and the final line once run_done arrives. Run itself writes nothing. Call
// the returned stop after Run has returned: it reads the bus to its end, so
// the final line is written before stop returns.
func Heartbeat(bus *progress.Bus, w io.Writer) (stop func()) {
	r := bus.NewReader()
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := tally{started: time.Now()}
		tick := time.NewTicker(heartbeatEvery)
		defer tick.Stop()
		for done := false; !done; {
			select {
			case <-quit:
				done = true
			case <-tick.C:
			}
			if t.read(r) {
				done = true
			}
			fmt.Fprintln(w, t.line())
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// tally is the run's progress as read off the bus so far.
type tally struct {
	started              time.Time
	done, total, failed  int64
	settled, settledWall int64 // trial_done events read, and their wall time
}

// read consumes every event available to r and reports whether run_done
// was among them. Trials settle on several goroutines, so their done and
// failed tallies can reach the bus out of order: the largest seen is the
// current one.
func (t *tally) read(r *progress.Reader) (runDone bool) {
	var buf [64]progress.Event
	for n := r.Poll(buf[:]); n > 0; n = r.Poll(buf[:]) {
		for _, ev := range buf[:n] {
			t.total = max(t.total, ev.Total)
			t.done = max(t.done, ev.Done)
			t.failed = max(t.failed, ev.Failed)
			switch ev.Kind {
			case progress.KindTrialDone:
				t.settled++
				t.settledWall += ev.WallNS
			case progress.KindRunDone:
				runDone = true
			}
		}
	}
	return runDone
}

// line renders one heartbeat: done/total, failures, mean trial wall time,
// and an ETA for the remainder at the run's pace so far.
func (t *tally) line() string {
	line := fmt.Sprintf("harness: %d/%d trials", t.done, t.total)
	if t.failed > 0 {
		line += fmt.Sprintf(" (%d failed)", t.failed)
	}
	if t.settled > 0 {
		mean := time.Duration(t.settledWall / t.settled).Round(time.Millisecond)
		line += fmt.Sprintf(", mean %v/trial", mean)
	}
	if left := t.total - t.done; t.done > 0 && left > 0 {
		elapsed := time.Since(t.started)
		eta := time.Duration(float64(elapsed) / float64(t.done) * float64(left)).Round(time.Second)
		line += fmt.Sprintf(", eta ~%v", eta)
	}
	return line
}
