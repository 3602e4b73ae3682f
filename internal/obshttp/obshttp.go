// Package obshttp is the embedded live observability server for one
// simulation run. A CLI starts it with Serve, publishes progress into the
// run's bounded bus and metric mirror (internal/progress), and obshttp
// serves that state over HTTP: Prometheus text exposition on /metrics (one
// vsched_metric{run,name} sample per name in the mirror snapshot, plus the
// server's own vsched_obs_* counters), an NDJSON/SSE structured progress
// stream on /runs/{id}/events, /healthz, and the standard pprof mux. It
// never touches live simulation state. Everything the handlers read arrived
// through the bus or the mirror at a simulation safepoint, so attaching the
// server (and scraping it concurrently) cannot perturb a determinism-gated
// run.
package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsched/internal/progress"
)

// Server serves one run: the one Serve was started for.
type Server struct {
	id     string
	bus    *progress.Bus
	mirror progress.Mirror
	mux    *http.ServeMux
	srv    *http.Server

	scrapes  atomic.Uint64
	expoPool sync.Pool
}

// pollEvery is how often an event-stream handler polls the bus for new
// events.
const pollEvery = 25 * time.Millisecond

// drainGrace is how long Stop keeps the listener up after marking the run
// finished, so attached stream consumers can read their terminal record
// before the process exits.
const drainGrace = 100 * time.Millisecond

// newServer builds the handlers for run id, without a listener.
func newServer(id string) *Server {
	s := &Server{id: id, bus: progress.NewBus(), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Serve is the -serve lifecycle the CLIs share: it binds addr (":0" and
// "host:0" pick an ephemeral port), serves run id in a background
// goroutine, and announces the bound address on w (the CLI's stderr).
func Serve(addr, id string, w io.Writer) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := newServer(id)
	s.srv = &http.Server{Handler: s.mux}
	// Serve returns http.ErrServerClosed once Stop closes the server;
	// observation is best effort, so a listener that fails earlier just
	// stops serving.
	go s.srv.Serve(lis)
	fmt.Fprintf(w, "observability: http://%s/metrics, /runs/%s/events\n", lis.Addr(), id)
	return s, nil
}

// Bus returns the run's progress bus, which the simulation publishes events
// to.
func (s *Server) Bus() *progress.Bus { return s.bus }

// Mirror returns the run's metric mirror, which the simulation publishes
// snapshots to.
func (s *Server) Mirror() *progress.Mirror { return &s.mirror }

// Stop marks the run's bus done so event streams drain and close, waits
// drainGrace, and closes the server.
func (s *Server) Stop() {
	s.bus.MarkDone()
	time.Sleep(drainGrace)
	s.srv.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	scrape := s.scrapes.Add(1)
	buf, _ := s.expoPool.Get().([]byte)
	buf = appendExposition(buf[:0], scrape, s.id, s.bus.Seq(), s.mirror.Load())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf)
	s.expoPool.Put(buf) //nolint:staticcheck // slice reuse, pointer-shape loss is fine
}

// streamRecord is the envelope for non-event records on the progress
// stream: drop notices and the terminal summary.
type streamRecord struct {
	Kind     string `json:"kind"`
	Dropped  uint64 `json:"dropped"`
	Received uint64 `json:"received,omitempty"`
}

func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	if req.PathValue("id") != s.id {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	sse := strings.Contains(req.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	// Commit headers before the first event so clients unblock immediately
	// and can start consuming a stream that may stay quiet for a while.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	write := func(v any) bool {
		if sse {
			if _, err := io.WriteString(w, "data: "); err != nil {
				return false
			}
		}
		if err := enc.Encode(v); err != nil {
			return false
		}
		if sse {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return false
			}
		}
		return true
	}

	reader := s.bus.NewReader()
	var (
		received     uint64
		reportedDrop uint64
		buf          [64]progress.Event
	)
	ticker := time.NewTicker(pollEvery)
	defer ticker.Stop()
	for {
		wrote := false
		for {
			n := reader.Poll(buf[:])
			if n == 0 {
				break
			}
			if d := reader.Dropped(); d > reportedDrop {
				// The consumer fell a full ring behind; report exactly how
				// much history it lost instead of silently skipping.
				reportedDrop = d
				if !write(streamRecord{Kind: "drops", Dropped: d}) {
					return
				}
			}
			for _, ev := range buf[:n] {
				if !write(ev) {
					return
				}
				received++
			}
			wrote = true
		}
		if wrote && flusher != nil {
			flusher.Flush()
		}
		if s.bus.Done() && reader.Drained() {
			write(streamRecord{Kind: "stream_end", Dropped: reader.Dropped(), Received: received})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-req.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
