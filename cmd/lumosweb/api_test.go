package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crosssched/internal/twin"
)

// twinServer spins up the twin API alone (no figure suite) with the given
// bounds.
func twinServer(t *testing.T, cfg twin.Config) (*httptest.Server, *twin.Manager) {
	t.Helper()
	if cfg.TickInterval == 0 {
		cfg.TickInterval = time.Hour // keep wall-clock out of tests
	}
	mgr := twin.NewManager(cfg)
	t.Cleanup(mgr.Close)
	mux := http.NewServeMux()
	registerTwinAPI(mux, mgr, apiConfig{})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, mgr
}

// post sends a JSON body and decodes a JSON reply into out (when non-nil).
func post(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad JSON reply %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

// TestTwinSessionLifecycle drives the full HTTP surface: create, submit,
// advance, status, what-if, delete.
func TestTwinSessionLifecycle(t *testing.T) {
	srv, _ := twinServer(t, twin.Config{})

	var snap twin.Snapshot
	code := post(t, srv.URL+"/session",
		`{"cores": 64, "partitions": 2, "policy": "fcfs", "backfill": "easy", "seed": 7}`, &snap)
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	if snap.Cores != 64 || snap.Partitions != 2 || snap.Policy != "FCFS" || snap.Backfill != "easy" {
		t.Fatalf("created session %+v", snap)
	}
	base := srv.URL + "/session/" + snap.ID

	var sub struct {
		IDs []int   `json:"ids"`
		Now float64 `json:"now"`
	}
	code = post(t, base+"/submit",
		`{"jobs": [
			{"procs": 32, "run": 100},
			{"procs": 32, "run": 200},
			{"procs": 32, "run": 50, "submit": 10}
		]}`, &sub)
	if code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	if len(sub.IDs) != 3 || sub.IDs[0] != 0 || sub.IDs[2] != 2 {
		t.Fatalf("submit ids %v", sub.IDs)
	}

	code = post(t, base+"/advance", `{"to": 150}`, &snap)
	if code != http.StatusOK {
		t.Fatalf("advance status %d", code)
	}
	if snap.Now != 150 || snap.Jobs != 3 {
		t.Fatalf("advanced snapshot %+v", snap)
	}
	if snap.Completed+snap.Running+snap.Queued+snap.Future != 3 {
		t.Fatalf("job classification does not cover the log: %+v", snap)
	}

	var rep twin.Report
	code = post(t, base+"/whatif",
		`{"candidates": [{"policy": "sjf"}, {"backfill": "conservative"}]}`, &rep)
	if code != http.StatusOK {
		t.Fatalf("whatif status %d", code)
	}
	if len(rep.Ranking) != 2 || rep.Ranking[0].Rank != 1 || rep.Now != 150 {
		t.Fatalf("whatif report %+v", rep)
	}

	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session GET status %d, want 404", resp.StatusCode)
	}
}

// TestTwinErrorCodes pins the sentinel-to-status mapping.
func TestTwinErrorCodes(t *testing.T) {
	srv, _ := twinServer(t, twin.Config{MaxCandidates: 2, MaxJobs: 2})

	if code := post(t, srv.URL+"/session/nope/submit", `{"jobs":[{"procs":1,"run":1}]}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", code)
	}
	if code := post(t, srv.URL+"/session", `{"cores": 8, "policy": "wat"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad policy: %d, want 400", code)
	}
	if code := post(t, srv.URL+"/session", `not json`, nil); code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", code)
	}
	if code := post(t, srv.URL+"/session", `{}`, nil); code != http.StatusBadRequest {
		t.Fatalf("clusterless session: %d, want 400", code)
	}
	// A partition count is allocated up front; a huge one is refused
	// before anything is sized by it.
	if code := post(t, srv.URL+"/session", `{"cores": 2000000000, "partitions": 1000000000}`, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized partition count: %d, want 400", code)
	}
	// Every what-if forks a checkpoint; the old opt-out is an unknown field.
	if code := post(t, srv.URL+"/session", `{"cores": 8, "cold_whatif": true}`, nil); code != http.StatusBadRequest {
		t.Fatalf("removed cold_whatif field: %d, want 400", code)
	}

	var snap twin.Snapshot
	post(t, srv.URL+"/session", `{"cores": 8}`, &snap)
	base := srv.URL + "/session/" + snap.ID
	if code := post(t, base+"/whatif", `{"candidates": []}`, nil); code != http.StatusBadRequest {
		t.Fatalf("empty whatif: %d, want 400", code)
	}
	if code := post(t, base+"/whatif",
		`{"candidates": [{"policy":"sjf"},{"policy":"saf"},{"policy":"fcfs"}]}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over candidate cap: %d, want 429", code)
	}
	if code := post(t, base+"/whatif", `{"candidates": [{"policy":"sjf"}]}`, nil); code != http.StatusConflict {
		t.Fatalf("whatif with no jobs: %d, want 409", code)
	}
	if code := post(t, base+"/submit",
		`{"jobs":[{"procs":1,"run":1},{"procs":1,"run":1},{"procs":1,"run":1}]}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over job cap: %d, want 429", code)
	}
	if code := post(t, base+"/advance", `{"by": 1, "to": 2}`, nil); code != http.StatusBadRequest {
		t.Fatalf("ambiguous advance: %d, want 400", code)
	}
}

// TestTwinWhatIfStableBody: repeating an identical what-if query returns a
// byte-identical reply — the HTTP layer preserves the twin's determinism.
func TestTwinWhatIfStableBody(t *testing.T) {
	srv, _ := twinServer(t, twin.Config{})
	var snap twin.Snapshot
	post(t, srv.URL+"/session", `{"cores": 32, "policy": "fcfs", "seed": 11}`, &snap)
	base := srv.URL + "/session/" + snap.ID
	jobs := make([]string, 40)
	for i := range jobs {
		jobs[i] = fmt.Sprintf(`{"procs": %d, "run": %d, "user": %d}`, 1+i%16, 60+i*30, i%5)
	}
	post(t, base+"/submit", `{"jobs": [`+strings.Join(jobs, ",")+`]}`, nil)

	query := `{"candidates": [{"policy":"sjf"},{"policy":"saf","backfill":"easy"},{"backfill":"conservative"},{"policy":"f1","faults":"mtbf=43200,mttr=600,frac=0.5"}]}`
	read := func() string {
		resp, err := http.Post(base+"/whatif", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("whatif status %d: %s", resp.StatusCode, raw)
		}
		return string(raw)
	}
	first := read()
	for i := 0; i < 3; i++ {
		if got := read(); got != first {
			t.Fatalf("what-if reply %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestTwinSSEStream: the events endpoint streams decision events as
// `event: obs` frames as the clock advances.
func TestTwinSSEStream(t *testing.T) {
	srv, _ := twinServer(t, twin.Config{})
	var snap twin.Snapshot
	post(t, srv.URL+"/session", `{"cores": 16}`, &snap)
	base := srv.URL + "/session/" + snap.ID

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	post(t, base+"/submit", `{"jobs": [{"procs": 8, "run": 100}, {"procs": 8, "run": 50}]}`, nil)
	post(t, base+"/advance", `{"to": 1000}`, nil)

	sc := bufio.NewScanner(resp.Body)
	frames := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "event: obs" {
			if !sc.Scan() || !strings.HasPrefix(sc.Text(), `data: {"kind":"`) {
				t.Fatalf("obs frame missing data line, got %q", sc.Text())
			}
			var ev struct {
				Kind string  `json:"kind"`
				Time float64 `json:"t"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &ev); err != nil {
				t.Fatalf("bad event JSON: %v", err)
			}
			if ev.Time >= 1000 {
				t.Fatalf("event at t=%v published beyond the clock", ev.Time)
			}
			frames++
			if frames >= 4 { // submit+start for both jobs at minimum
				cancel()
				break
			}
		}
	}
	if frames < 4 {
		t.Fatalf("saw %d obs frames, want >= 4", frames)
	}
}

// slowSink is an http.ResponseWriter whose Writes block until released —
// a stand-in for a stalled SSE client.
type slowSink struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	header  http.Header
	gate    chan struct{} // closed to unblock writes
	blocked chan struct{} // closed on first blocked write
	once    sync.Once
}

func newSlowSink() *slowSink {
	return &slowSink{
		header:  http.Header{},
		gate:    make(chan struct{}),
		blocked: make(chan struct{}),
	}
}

func (w *slowSink) Header() http.Header { return w.header }
func (w *slowSink) WriteHeader(int)     {}
func (w *slowSink) Flush()              {}
func (w *slowSink) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.blocked) })
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
func (w *slowSink) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestTwinSSEBackpressure: a stalled SSE client overruns its bounded ring
// and loses the OLDEST events (reported via an `event: dropped` frame);
// the session itself never stalls, and the handler goroutine exits when
// the client disconnects (no leak).
func TestTwinSSEBackpressure(t *testing.T) {
	cfg := twin.Config{EventBuffer: 4, TickInterval: time.Hour}
	mgr := twin.NewManager(cfg)
	t.Cleanup(mgr.Close)
	mux := http.NewServeMux()
	registerTwinAPI(mux, mgr, apiConfig{})

	s, err := mgr.Create(twin.SessionConfig{Cores: 16})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := newSlowSink()
	req := httptest.NewRequest(http.MethodGet, "/session/"+s.ID+"/events", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mux.ServeHTTP(sink, req)
	}()

	// Wait until the handler has subscribed: events published before the
	// subscription would never reach it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := s.Status()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Subscribers > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// First event parks the handler in a blocked Write.
	specs := []twin.JobSpec{{Procs: 1, Run: 10}}
	if _, err := s.Submit(specs); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceBy(100); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sink.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE handler never wrote the first event")
	}

	// Flood: far more events than the 4-slot ring while the client stalls.
	var bulk []twin.JobSpec
	for i := 0; i < 50; i++ {
		bulk = append(bulk, twin.JobSpec{Procs: 1, Run: 10})
	}
	if _, err := s.Submit(bulk); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceBy(1e6); err != nil {
		t.Fatal(err)
	}

	// The stalled subscriber must not stall the session.
	snap, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if snap.EventsEmitted < 100 {
		t.Fatalf("session stalled behind slow SSE client: %+v", snap)
	}

	close(sink.gate) // client recovers; handler drains ring + gap frame
	deadline = time.Now().Add(5 * time.Second)
	for !strings.Contains(sink.String(), "event: dropped") {
		if time.Now().After(deadline) {
			t.Fatalf("no dropped frame after overrun; output:\n%s", sink.String())
		}
		time.Sleep(time.Millisecond)
	}

	cancel() // client disconnects: handler must exit and unsubscribe
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE handler leaked after client disconnect")
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		snap, err = s.Status()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Subscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber never detached: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}

	// The session is still live for new work.
	if _, err := s.Submit(specs); err != nil {
		t.Fatal(err)
	}
}

// TestTwinSessionLRUOverHTTP: creating past the cap evicts the oldest
// session, which then 404s.
func TestTwinSessionLRUOverHTTP(t *testing.T) {
	srv, mgr := twinServer(t, twin.Config{MaxSessions: 2})
	ids := make([]string, 3)
	for i := range ids {
		var snap twin.Snapshot
		if code := post(t, srv.URL+"/session", `{"cores": 8}`, &snap); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids[i] = snap.ID
	}
	if mgr.Len() != 2 {
		t.Fatalf("live sessions = %d, want 2", mgr.Len())
	}
	resp, err := http.Get(srv.URL + "/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session status %d, want 404", resp.StatusCode)
	}
}

// sseUntilGone reads an SSE stream until the terminal `event: gone` frame
// and returns its data payload (the close reason).
func sseUntilGone(t *testing.T, body io.Reader) string {
	t.Helper()
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if sc.Text() != "event: gone" {
			continue
		}
		if !sc.Scan() {
			t.Fatal("gone frame missing data line")
		}
		return strings.TrimPrefix(sc.Text(), "data: ")
	}
	t.Fatalf("stream ended without a gone frame (scan err %v)", sc.Err())
	return ""
}

// TestTwinSSEGoneFrame: when a session goes away under a live SSE stream,
// the client gets a terminal `event: gone` frame naming why — closed,
// evicted, or parked — instead of a bare EOF.
func TestTwinSSEGoneFrame(t *testing.T) {
	// subscribeSSE opens the stream and waits until the session sees it.
	subscribeSSE := func(t *testing.T, srv *httptest.Server, mgr *twin.Manager, id string) io.ReadCloser {
		t.Helper()
		resp, err := http.Get(srv.URL + "/session/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		s, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			snap, err := s.Status()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Subscribers > 0 {
				return resp.Body
			}
			if time.Now().After(deadline) {
				t.Fatal("SSE handler never subscribed")
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("closed", func(t *testing.T) {
		srv, mgr := twinServer(t, twin.Config{})
		var snap twin.Snapshot
		post(t, srv.URL+"/session", `{"cores": 8}`, &snap)
		body := subscribeSSE(t, srv, mgr, snap.ID)
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/session/"+snap.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := sseUntilGone(t, body); got != "closed" {
			t.Fatalf("gone reason = %q, want closed", got)
		}
	})
	t.Run("evicted", func(t *testing.T) {
		srv, mgr := twinServer(t, twin.Config{MaxSessions: 1})
		var snap twin.Snapshot
		post(t, srv.URL+"/session", `{"cores": 8}`, &snap)
		body := subscribeSSE(t, srv, mgr, snap.ID)
		post(t, srv.URL+"/session", `{"cores": 8}`, nil) // evicts the first
		if got := sseUntilGone(t, body); got != "evicted" {
			t.Fatalf("gone reason = %q, want evicted", got)
		}
	})
	t.Run("parked", func(t *testing.T) {
		srv, mgr := twinServer(t, twin.Config{MaxSessions: 1, StateDir: t.TempDir(), Fsync: twin.FsyncAlways})
		var snap twin.Snapshot
		post(t, srv.URL+"/session", `{"cores": 8}`, &snap)
		body := subscribeSSE(t, srv, mgr, snap.ID)
		post(t, srv.URL+"/session", `{"cores": 8}`, nil) // parks the first
		if got := sseUntilGone(t, body); got != "parked" {
			t.Fatalf("gone reason = %q, want parked", got)
		}
		// Parked is not gone for good: the next lookup reactivates.
		resp, err := http.Get(srv.URL + "/session/" + snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reactivation GET status %d, want 200", resp.StatusCode)
		}
	})
}

// TestTwinRetryAfterOn429: every 429 — twin budget caps and shedding gates
// alike — carries a Retry-After header.
func TestTwinRetryAfterOn429(t *testing.T) {
	srv, _ := twinServer(t, twin.Config{MaxCandidates: 1})
	var snap twin.Snapshot
	post(t, srv.URL+"/session", `{"cores": 8}`, &snap)
	resp, err := http.Post(srv.URL+"/session/"+snap.ID+"/whatif", "application/json",
		strings.NewReader(`{"candidates": [{"policy":"sjf"},{"policy":"saf"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over candidate cap: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want default 1", ra)
	}
}

// TestTwinShedding: a full concurrency gate answers 429 + Retry-After
// immediately instead of queuing, counts the shed, and recovers as soon as
// a slot frees.
func TestTwinShedding(t *testing.T) {
	mgr := twin.NewManager(twin.Config{TickInterval: time.Hour})
	t.Cleanup(mgr.Close)
	mux := http.NewServeMux()
	a := registerTwinAPI(mux, mgr, apiConfig{MaxMutate: 1, RetryAfter: 7 * time.Second})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	a.mutateSem <- struct{}{} // occupy the only slot
	resp, err := http.Post(srv.URL+"/session", "application/json", strings.NewReader(`{"cores": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gated create: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want 7", ra)
	}
	if got := a.shedMutate.Load(); got != 1 {
		t.Fatalf("shedMutate = %d, want 1", got)
	}
	<-a.mutateSem // slot frees
	if code := post(t, srv.URL+"/session", `{"cores": 8}`, nil); code != http.StatusCreated {
		t.Fatalf("create after gate opened: status %d, want 201", code)
	}
}

// TestTwinWhatIfBudget: a what-if that cannot finish inside the deadline
// budget is canceled and shed with 429 + Retry-After, not left running.
func TestTwinWhatIfBudget(t *testing.T) {
	mgr := twin.NewManager(twin.Config{TickInterval: time.Hour})
	t.Cleanup(mgr.Close)
	mux := http.NewServeMux()
	registerTwinAPI(mux, mgr, apiConfig{WhatIfBudget: time.Nanosecond})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	var snap twin.Snapshot
	post(t, srv.URL+"/session", `{"cores": 32}`, &snap)
	post(t, srv.URL+"/session/"+snap.ID+"/submit", `{"jobs": [{"procs": 8, "run": 100}]}`, nil)
	resp, err := http.Post(srv.URL+"/session/"+snap.ID+"/whatif", "application/json",
		strings.NewReader(`{"candidates": [{"policy":"sjf"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget whatif: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-budget whatif missing Retry-After")
	}
}

// TestTwinLogEndpoint: /log serves the published prefix as byte-stable
// JSONL — identical across reads, one line per emitted event.
func TestTwinLogEndpoint(t *testing.T) {
	srv, _ := twinServer(t, twin.Config{})
	var snap twin.Snapshot
	post(t, srv.URL+"/session", `{"cores": 16}`, &snap)
	base := srv.URL + "/session/" + snap.ID
	post(t, base+"/submit", `{"jobs": [{"procs": 8, "run": 100}, {"procs": 8, "run": 50}]}`, nil)
	post(t, base+"/advance", `{"to": 1000}`, &snap)

	read := func() []byte {
		resp, err := http.Get(base + "/log")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("log status %d", resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first := read()
	if got := bytes.Count(first, []byte("\n")); got != snap.EventsEmitted {
		t.Fatalf("log has %d lines, want events_emitted = %d", got, snap.EventsEmitted)
	}
	if snap.EventsEmitted == 0 {
		t.Fatal("setup: no events emitted")
	}
	if second := read(); !bytes.Equal(first, second) {
		t.Fatal("log endpoint is not byte-stable across reads")
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(first, []byte("\n")), []byte("\n")) {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &ev); err != nil || ev.Kind == "" {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

// TestTwinRecoveryOverHTTP is the end-to-end restart walkthrough: a second
// server over the same state dir serves the same sessions with the same
// event log, and they keep working.
func TestTwinRecoveryOverHTTP(t *testing.T) {
	dir := t.TempDir()
	cfg := twin.Config{StateDir: dir, Fsync: twin.FsyncAlways}

	srv1, _ := twinServer(t, cfg)
	var snap twin.Snapshot
	post(t, srv1.URL+"/session", `{"cores": 32, "partitions": 2, "policy": "sjf", "backfill": "easy"}`, &snap)
	base1 := srv1.URL + "/session/" + snap.ID
	post(t, base1+"/submit", `{"jobs": [{"procs": 8, "run": 300}, {"procs": 16, "run": 100}, {"procs": 4, "run": 700}]}`, nil)
	post(t, base1+"/advance", `{"to": 500}`, nil)
	resp, err := http.Get(base1 + "/log")
	if err != nil {
		t.Fatal(err)
	}
	pre, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(pre) == 0 {
		t.Fatalf("pre-crash log: %d bytes, err %v", len(pre), err)
	}

	// "Restart": a second manager over the same dir while the first is
	// simply abandoned (closed only at test cleanup, like a kill).
	srv2, _ := twinServer(t, cfg)
	var mets struct {
		TwinRecovered int64 `json:"twin_recovered"`
	}
	if code := getJSON(t, srv2.URL+"/twin/metrics", &mets); code != http.StatusOK || mets.TwinRecovered != 1 {
		t.Fatalf("metrics after restart: code %d, %+v", code, mets)
	}
	base2 := srv2.URL + "/session/" + snap.ID
	resp, err = http.Get(base2 + "/log")
	if err != nil {
		t.Fatal(err)
	}
	post2, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, post2) {
		t.Fatalf("recovered log differs:\npre  %d bytes\npost %d bytes", len(pre), len(post2))
	}
	// Recovered session keeps working.
	if code := post(t, base2+"/submit", `{"jobs": [{"procs": 8, "run": 60}]}`, nil); code != http.StatusOK {
		t.Fatalf("submit after recovery: status %d", code)
	}
	if code := post(t, base2+"/advance", `{"by": 5000}`, &snap); code != http.StatusOK {
		t.Fatalf("advance after recovery: status %d", code)
	}
	if snap.Jobs != 4 {
		t.Fatalf("recovered session jobs = %d, want 4", snap.Jobs)
	}
}

// getJSON fetches a URL and decodes the JSON reply into out when non-nil.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad JSON reply %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}
