package obshttp

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vsched/internal/progress"
)

func TestHealthz(t *testing.T) {
	s := newServer("demo")
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newServer("obsplane")
	s.Mirror().Publish(func(emit func(string, float64)) {
		emit("fleet.macro.placed", 115000)
		emit("sim.wheel.resident", 7)
	})
	s.Bus().Publish(progress.Event{Kind: progress.KindEpoch})

	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"vsched_up 1\n",
		"vsched_obs_scrapes_total 1\n",
		`vsched_obs_events_published_total{run="obsplane"} 1` + "\n",
		`vsched_metric{run="obsplane",name="fleet.macro.placed"} 115000` + "\n",
		`vsched_metric{run="obsplane",name="sim.wheel.resident"} 7` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in:\n%s", want, body)
		}
	}
	// Every mirrored sample goes into the one vsched_metric family.
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, `name="`) && !strings.HasPrefix(line, "vsched_metric{") {
			t.Fatalf("sample outside vsched_metric: %q", line)
		}
	}
}

func TestPprofMounted(t *testing.T) {
	s := newServer("demo")
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d", rec.Code)
	}
}

// TestEventStreamNDJSON runs a real server over TCP, publishes a run's
// worth of events, and checks the stream delivers them in order and closes
// with an exact stream_end summary.
func TestEventStreamNDJSON(t *testing.T) {
	s := newServer("demo")
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	bus := s.Bus()
	bus.Publish(progress.Event{Kind: progress.KindRunStart, Label: "demo", Total: 3})
	for i := 1; i <= 3; i++ {
		bus.Publish(progress.Event{Kind: progress.KindEpoch, Epoch: int64(i), Done: int64(i), Total: 3})
	}
	bus.Publish(progress.Event{Kind: progress.KindRunDone, Done: 3, Total: 3})
	bus.MarkDone()

	resp, err := http.Get(ts.URL + "/runs/demo/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var kinds []string
	var end streamRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kind := m["kind"].(string)
		kinds = append(kinds, kind)
		if kind == "stream_end" {
			json.Unmarshal(sc.Bytes(), &end)
		}
	}
	want := []string{"run_start", "epoch", "epoch", "epoch", "run_done", "stream_end"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	if end.Received != 5 || end.Dropped != 0 {
		t.Fatalf("stream_end = %+v", end)
	}
}

func TestEventStreamSSE(t *testing.T) {
	s := newServer("demo")
	s.Bus().Publish(progress.Event{Kind: progress.KindRunDone})
	s.Bus().MarkDone()

	req := httptest.NewRequest("GET", "/runs/demo/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, `data: {"seq":0,"kind":"run_done"`) {
		t.Fatalf("SSE body:\n%s", body)
	}
	if !strings.Contains(body, `"kind":"stream_end"`) {
		t.Fatalf("missing stream_end:\n%s", body)
	}
}

func TestEventStreamUnknownRun(t *testing.T) {
	s := newServer("demo")
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/nope/events", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("code = %d", rec.Code)
	}
}

// TestEventStreamDropNotice overflows the ring by 12 events before the
// consumer attaches and checks the stream reports the exact drop count.
func TestEventStreamDropNotice(t *testing.T) {
	s := newServer("lossy")
	const ring = 4096 // progress.NewBus's capacity
	for i := 0; i < ring+12; i++ {
		s.Bus().Publish(progress.Event{Kind: progress.KindEpoch, Epoch: int64(i)})
	}
	s.Bus().MarkDone()

	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/lossy/events", nil))
	var dropNotice, end streamRecord
	var events int
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	for sc.Scan() {
		var m map[string]any
		json.Unmarshal(sc.Bytes(), &m)
		switch m["kind"] {
		case "drops":
			json.Unmarshal(sc.Bytes(), &dropNotice)
		case "stream_end":
			json.Unmarshal(sc.Bytes(), &end)
		default:
			events++
		}
	}
	if dropNotice.Dropped != 12 {
		t.Fatalf("drop notice = %+v, want 12 dropped", dropNotice)
	}
	if events != ring || end.Received != ring || end.Dropped != 12 {
		t.Fatalf("events=%d end=%+v; want %d received + 12 dropped", events, end, ring)
	}
}

// TestLiveStreamWhilePublishing attaches the consumer first, then
// publishes from another goroutine — the streaming path, not the drain-
// after-done path.
func TestLiveStreamWhilePublishing(t *testing.T) {
	s := newServer("live")
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	bus := s.Bus()

	resp, err := http.Get(ts.URL + "/runs/live/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	go func() {
		for i := 0; i < 50; i++ {
			bus.Publish(progress.Event{Kind: progress.KindEpoch, Epoch: int64(i)})
			time.Sleep(100 * time.Microsecond)
		}
		bus.Publish(progress.Event{Kind: progress.KindRunDone, Done: 50})
		bus.MarkDone()
	}()

	var got, dropped int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		switch m["kind"] {
		case "epoch", "run_done":
			got++
		case "drops":
			dropped = int(m["dropped"].(float64))
		case "stream_end":
			dropped = int(m["dropped"].(float64))
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if got+dropped != 51 {
		t.Fatalf("received %d + dropped %d != 51 published", got, dropped)
	}
}

// TestServeAndStop drives the production path: Serve binds an ephemeral
// port and announces it, the announced address serves the run, and Stop
// ends a connected event stream with its stream_end record before the
// listener goes away.
func TestServeAndStop(t *testing.T) {
	var announce strings.Builder
	s, err := Serve("127.0.0.1:0", "demo", &announce)
	if err != nil {
		t.Fatal(err)
	}
	rest, ok := strings.CutPrefix(announce.String(), "observability: http://")
	addr, _, _ := strings.Cut(rest, "/")
	if !ok || !strings.HasSuffix(rest, "/metrics, /runs/demo/events\n") {
		t.Fatalf("announcement %q", announce.String())
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	s.Mirror().Publish(func(emit func(string, float64)) { emit("sim.fired", 12) })
	if _, body := get("/metrics"); !strings.Contains(body, `vsched_metric{run="demo",name="sim.fired"} 12`+"\n") {
		t.Fatalf("mirrored sample missing from /metrics:\n%s", body)
	}
	if code, _ := get("/runs"); code != http.StatusNotFound {
		t.Fatalf("GET /runs = %d, want 404", code)
	}

	s.Bus().Publish(progress.Event{Kind: progress.KindRunStart})
	resp, err := http.Get("http://" + addr + "/runs/demo/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	var last string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last = sc.Text()
	}
	if last != `{"kind":"stream_end","dropped":0,"received":1}` {
		t.Fatalf("stream ended with %q, want its stream_end record", last)
	}
	<-stopped
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatal("listener still accepts connections after Stop")
	}
}
