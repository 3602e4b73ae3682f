package obshttp

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vsched/internal/progress"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	return New(Options{PollInterval: time.Millisecond})
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestRegisterDuplicateIDs(t *testing.T) {
	s := testServer(t)
	a := s.Register("fleet")
	b := s.Register("fleet")
	c := s.Register("fleet")
	if a.ID != "fleet" || b.ID != "fleet-2" || c.ID != "fleet-3" {
		t.Fatalf("ids: %q %q %q", a.ID, b.ID, c.ID)
	}
	if s.Lookup("fleet-2") != b || s.Lookup("nope") != nil {
		t.Fatalf("lookup broken")
	}
}

func TestRunsListing(t *testing.T) {
	s := testServer(t)
	r1 := s.Register("alpha")
	s.Register("beta")
	r1.Publisher().Publish(progress.Event{Kind: progress.KindRunStart})
	r1.Publisher().PublishMirror(func(emit func(string, float64)) {
		emit("x", 1)
	})
	r1.Finish()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	var infos []runInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatalf("bad /runs JSON: %v\n%s", err, rec.Body.String())
	}
	if len(infos) != 2 || infos[0].ID != "alpha" || infos[1].ID != "beta" {
		t.Fatalf("listing: %+v", infos)
	}
	if infos[0].EventsPublished != 1 || !infos[0].Done || infos[0].MirrorPublishes != 1 {
		t.Fatalf("alpha info: %+v", infos[0])
	}
	if infos[1].Done {
		t.Fatalf("beta should not be done")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	r := s.Register("obsplane")
	r.Publisher().PublishMirror(func(emit func(string, float64)) {
		emit("fleet.macro.placed", 115000)
		emit("sim.wheel.resident", 7)
	})
	r.Publisher().Publish(progress.Event{Kind: progress.KindEpoch})

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
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
	if s.Scrapes() != 1 {
		t.Fatalf("scrapes = %d", s.Scrapes())
	}
}

func TestPprofMounted(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d", rec.Code)
	}
}

// TestEventStreamNDJSON runs a real server over TCP, publishes a run's
// worth of events, and checks the stream delivers them in order and closes
// with an exact stream_end summary.
func TestEventStreamNDJSON(t *testing.T) {
	s := testServer(t)
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := s.Register("demo")
	pub := run.Publisher()
	lbl := pub.Label("demo")
	pub.Publish(progress.Event{Kind: progress.KindRunStart, Label: lbl, Total: 3})
	for i := 1; i <= 3; i++ {
		pub.Publish(progress.Event{Kind: progress.KindEpoch, Epoch: int64(i), Admitted: int64(i), Running: int64(i)})
	}
	pub.Publish(progress.Event{Kind: progress.KindRunDone, Admitted: 3, Completed: 3})
	run.Finish()

	resp, err := http.Get("http://" + addr + "/runs/demo/events")
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
	s := testServer(t)
	run := s.Register("demo")
	run.Publisher().Publish(progress.Event{Kind: progress.KindRunDone})
	run.Finish()

	req := httptest.NewRequest("GET", "/runs/demo/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
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
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/runs/nope/events", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("code = %d", rec.Code)
	}
}

// TestEventStreamDropNotice overflows a tiny ring before the consumer
// attaches and checks the stream reports the exact drop count.
func TestEventStreamDropNotice(t *testing.T) {
	s := New(Options{PollInterval: time.Millisecond, BusSize: 8})
	run := s.Register("lossy")
	pub := run.Publisher()
	for i := 0; i < 20; i++ {
		pub.Publish(progress.Event{Kind: progress.KindEpoch, Epoch: int64(i)})
	}
	run.Finish()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/runs/lossy/events", nil))
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
	if events != 8 || end.Received != 8 || end.Dropped != 12 {
		t.Fatalf("events=%d end=%+v; want 8 received + 12 dropped = 20 published", events, end)
	}
}

// TestLiveStreamWhilePublishing attaches the consumer first, then
// publishes from another goroutine — the streaming path, not the drain-
// after-done path.
func TestLiveStreamWhilePublishing(t *testing.T) {
	s := testServer(t)
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := s.Register("live")
	pub := run.Publisher()

	resp, err := http.Get("http://" + addr + "/runs/live/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	go func() {
		for i := 0; i < 50; i++ {
			pub.Publish(progress.Event{Kind: progress.KindEpoch, Epoch: int64(i)})
			time.Sleep(100 * time.Microsecond)
		}
		pub.Publish(progress.Event{Kind: progress.KindRunDone, Admitted: 50})
		run.Finish()
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
