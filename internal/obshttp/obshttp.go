// Package obshttp is the embedded live observability server: any
// long-running simulation registers a run, publishes progress into its
// bounded bus and metric mirror (internal/progress), and obshttp serves
// that state over HTTP — Prometheus text exposition on /metrics (one
// vsched_metric{run,name} sample per name in each run's mirror snapshot,
// plus the server's own vsched_obs_* counters), an NDJSON/SSE structured
// progress stream on /runs/{id}/events, a /runs listing, /healthz, and the
// standard pprof mux — without ever touching live simulation state.
// Everything the handlers read arrived through a lock-free handoff at a
// simulation safepoint, so attaching the server (and scraping it
// concurrently) cannot perturb a determinism-gated run.
package obshttp

import (
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsched/internal/progress"
)

// Options configures a Server.
type Options struct {
	// Log receives structured server logs; nil discards them.
	Log *slog.Logger
	// BusSize is the per-run progress ring capacity (progress.DefaultBusSize
	// if <= 0).
	BusSize int
	// PollInterval is how often event-stream handlers poll the bus for new
	// events (25ms if <= 0). Tests lower it.
	PollInterval time.Duration
}

// Run is one registered simulation run: a stable ID, the publisher handles
// the simulation writes into, and a run-scoped logger.
type Run struct {
	ID  string
	pub *progress.Publisher
	log *slog.Logger
}

// Publisher returns the handles the simulation publishes through. Pass it
// to harness.Config.Obs / fleet.MacroConfig.Obs.
func (r *Run) Publisher() *progress.Publisher { return r.pub }

// Log returns the run-scoped structured logger.
func (r *Run) Log() *slog.Logger { return r.log }

// Finish marks the run's bus done so event streams drain and close. The run
// stays registered: its final mirror snapshot remains scrape-visible.
func (r *Run) Finish() {
	r.pub.MarkDone()
	r.log.Info("run finished", "events", r.pub.Bus.Seq())
}

// Server is the embeddable observability HTTP server.
type Server struct {
	log  *slog.Logger
	mux  *http.ServeMux
	poll time.Duration
	bus  int

	mu   sync.Mutex
	runs []*Run
	byID map[string]*Run

	scrapes atomic.Uint64

	srv *http.Server
	lis net.Listener

	expoPool sync.Pool
}

// New builds a server with no runs registered.
func New(opts Options) *Server {
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		log:  log,
		mux:  http.NewServeMux(),
		poll: opts.PollInterval,
		bus:  opts.BusSize,
		byID: make(map[string]*Run),
	}
	if s.poll <= 0 {
		s.poll = 25 * time.Millisecond
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /runs", s.handleRuns)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Register adds a run and returns its handle. IDs must be unique; a
// duplicate gets a deterministic "-2", "-3", ... suffix.
func (s *Server) Register(id string) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		id = "run"
	}
	base := id
	for n := 2; ; n++ {
		if _, taken := s.byID[id]; !taken {
			break
		}
		id = base + "-" + strconv.Itoa(n)
	}
	r := &Run{
		ID:  id,
		pub: progress.NewPublisher(s.bus),
		log: s.log.With("run", id),
	}
	s.runs = append(s.runs, r)
	s.byID[id] = r
	r.log.Info("run registered")
	return r
}

// Lookup returns the run with the given ID, or nil.
func (s *Server) Lookup(id string) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// snapshotRuns returns the registered runs in registration order.
func (s *Server) snapshotRuns() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Run, len(s.runs))
	copy(out, s.runs)
	return out
}

// Handler returns the server's mux, for embedding or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Scrapes returns how many /metrics scrapes have been served.
func (s *Server) Scrapes() uint64 { return s.scrapes.Load() }

// ListenAndServe binds addr (":0" and "host:0" pick an ephemeral port) and
// serves in a background goroutine. It returns the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux}
	go func() {
		if err := s.srv.Serve(lis); err != nil && err != http.ErrServerClosed {
			s.log.Error("obs server exited", "err", err)
		}
	}()
	bound := lis.Addr().String()
	s.log.Info("obs server listening", "addr", bound)
	return bound, nil
}

// Close stops the listener and all in-flight handlers.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// runInfo is one /runs listing entry.
type runInfo struct {
	ID              string `json:"id"`
	EventsPublished uint64 `json:"events_published"`
	MirrorPublishes uint64 `json:"mirror_publishes"`
	Done            bool   `json:"done"`
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs := s.snapshotRuns()
	infos := make([]runInfo, 0, len(runs))
	for _, r := range runs {
		infos = append(infos, runInfo{
			ID:              r.ID,
			EventsPublished: r.pub.Bus.Seq(),
			MirrorPublishes: r.pub.Mirror.Published(),
			Done:            r.pub.Bus.Done(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(infos)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	scrape := s.scrapes.Add(1)
	runs := s.snapshotRuns()
	expos := make([]runExpo, 0, len(runs))
	for _, r := range runs {
		expos = append(expos, runExpo{
			id:        r.ID,
			published: r.pub.Bus.Seq(),
			samples:   r.pub.Mirror.Load(),
		})
	}
	buf, _ := s.expoPool.Get().([]byte)
	buf = appendExposition(buf[:0], scrape, expos)
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
	id := req.PathValue("id")
	run := s.Lookup(id)
	if run == nil {
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

	bus := run.pub.Bus
	reader := bus.NewReader(true)
	run.log.Info("event stream attached", "sse", sse)
	var (
		received     uint64
		reportedDrop uint64
		buf          [64]progress.Event
	)
	ticker := time.NewTicker(s.poll)
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
				if !write(bus.Wire(ev)) {
					return
				}
				received++
			}
			wrote = true
		}
		if wrote && flusher != nil {
			flusher.Flush()
		}
		if bus.Done() && reader.Drained() {
			write(streamRecord{Kind: "stream_end", Dropped: reader.Dropped(), Received: received})
			if flusher != nil {
				flusher.Flush()
			}
			run.log.Info("event stream drained", "received", received, "dropped", reader.Dropped())
			return
		}
		select {
		case <-req.Context().Done():
			run.log.Info("event stream client gone", "received", received, "dropped", reader.Dropped())
			return
		case <-ticker.C:
		}
	}
}
