// Command twinload load-tests the lumosweb digital-twin service: it drives
// K concurrent sessions through the full lifecycle — create, M submission
// batches with clock advances, a what-if query per batch, teardown — and
// reports sessions/sec, what-if latency percentiles, and failures broken
// down by class (shed 429s vs client 4xx vs server 5xx vs transport).
//
// Usage (against a running lumosweb):
//
//	twinload -url http://localhost:8080 -sessions 1000 -submits 3
//
// scripts/loadtest.sh wires the two together and checks graceful shutdown.
//
// Crash-test knobs (scripts/crashtest.sh): -kill-pid/-kill-after SIGKILL
// the server mid-load — transport failures after the kill are expected and
// don't fail the run — and -resume drives existing sessions s000001..K
// (created by an earlier run and recovered from their journals) instead of
// creating new ones.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crosssched/internal/par"
)

// failClass buckets one failed session by its root cause.
type failClass int

const (
	failShed      failClass = iota // 429: overload shedding or budget caps
	failClient                     // other 4xx: the driver sent something bad
	failServer                     // 5xx
	failTransport                  // connection refused/reset, timeouts
	failOther                      // decode errors and the like
	numFailClasses
)

var failNames = [numFailClasses]string{"shed(429)", "client(4xx)", "server(5xx)", "transport", "other"}

// statusError is a non-2xx reply, carrying the class and back-off hint.
type statusError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.msg) }

func classify(err error) failClass {
	var se *statusError
	if !errors.As(err, &se) {
		if strings.Contains(err.Error(), "bad reply") {
			return failOther
		}
		return failTransport
	}
	switch {
	case se.code == http.StatusTooManyRequests:
		return failShed
	case se.code >= 500:
		return failServer
	case se.code >= 400:
		return failClient
	}
	return failOther
}

func main() {
	var (
		url       = flag.String("url", "http://localhost:8080", "lumosweb base URL")
		sessions  = flag.Int("sessions", 1000, "concurrent twin sessions to drive")
		submits   = flag.Int("submits", 3, "submission batches per session")
		jobs      = flag.Int("jobs", 5, "jobs per submission batch")
		workers   = flag.Int("workers", 64, "concurrent client workers")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		keep      = flag.Bool("keep", true, "leave sessions live (server holds all K at once; exercises shutdown teardown)")
		advance   = flag.Float64("advance", 300, "simulated seconds the clock advances per batch; large values age the log so what-ifs query a deep history, the warm-start regime")
		resume    = flag.Bool("resume", false, "drive existing sessions s000001..s<K> (recovered server state) instead of creating new ones")
		killPID   = flag.Int("kill-pid", 0, "SIGKILL this process kill-after into the load (crash testing; 0 = off)")
		killAfter = flag.Duration("kill-after", 500*time.Millisecond, "delay before -kill-pid fires")
		retries   = flag.Int("retries", 2, "extra attempts after a 429, honoring Retry-After")
	)
	flag.Parse()
	base := strings.TrimRight(*url, "/")
	client := &http.Client{Timeout: *timeout}

	// The kill timer is armed before the load starts and always fires,
	// even if the load finishes first: the crash test depends on the
	// server actually dying.
	var killedAt atomic.Int64 // unix nanos; 0 = not yet
	killDone := make(chan struct{})
	if *killPID > 0 {
		go func() {
			defer close(killDone)
			time.Sleep(*killAfter)
			killedAt.Store(time.Now().UnixNano())
			if p, err := os.FindProcess(*killPID); err == nil {
				_ = p.Kill()
			}
		}()
	} else {
		close(killDone)
	}

	var (
		mu         sync.Mutex
		whatIfLat  []time.Duration
		fails      [numFailClasses]int
		postKill   int // failures after the kill fired: expected, not errors
		shedWaits  int // 429s absorbed by retry
		firstErr   error
		firstClass failClass
	)
	fail := func(err error) {
		now := time.Now().UnixNano()
		mu.Lock()
		defer mu.Unlock()
		if k := killedAt.Load(); k != 0 && now >= k {
			postKill++
			return
		}
		c := classify(err)
		fails[c]++
		if firstErr == nil {
			firstErr, firstClass = err, c
		}
	}
	onRetry := func() {
		mu.Lock()
		shedWaits++
		mu.Unlock()
	}

	d := &driver{client: client, base: base, retries: *retries, onRetry: onRetry}
	ctx := par.WithLimit(context.Background(), *workers)
	start := time.Now()
	_ = par.ForEach(ctx, *sessions, func(ctx context.Context, i int) error {
		if err := d.driveSession(i, *submits, *jobs, *keep, *resume, *advance, func(lat time.Duration) {
			mu.Lock()
			whatIfLat = append(whatIfLat, lat)
			mu.Unlock()
		}); err != nil {
			fail(fmt.Errorf("session %d: %w", i, err))
		}
		return nil // keep driving the rest; errors are counted, not fatal
	})
	elapsed := time.Since(start)
	<-killDone

	fmt.Printf("twinload: %d sessions x %d submits in %v (%.1f sessions/sec)\n",
		*sessions, *submits, elapsed.Round(time.Millisecond),
		float64(*sessions)/elapsed.Seconds())
	if len(whatIfLat) > 0 {
		sort.Slice(whatIfLat, func(a, b int) bool { return whatIfLat[a] < whatIfLat[b] })
		pct := func(p float64) time.Duration {
			i := int(p * float64(len(whatIfLat)-1))
			return whatIfLat[i]
		}
		fmt.Printf("twinload: what-if latency p50=%v p90=%v p99=%v max=%v (n=%d)\n",
			pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
			pct(0.99).Round(time.Microsecond), whatIfLat[len(whatIfLat)-1].Round(time.Microsecond),
			len(whatIfLat))
	}
	if shedWaits > 0 {
		fmt.Printf("twinload: %d shed replies (429) absorbed by retry\n", shedWaits)
	}
	if postKill > 0 {
		fmt.Printf("twinload: %d sessions cut off by the kill (expected)\n", postKill)
	}
	total := 0
	for c, n := range fails {
		if n > 0 {
			fmt.Printf("twinload: %d sessions failed: %s\n", n, failNames[c])
			total += n
		}
	}
	if total > 0 {
		log.Fatalf("twinload: %d/%d sessions failed; first error (%s): %v",
			total, *sessions, failNames[firstClass], firstErr)
	}
	fmt.Println("twinload: all sessions completed")
	os.Exit(0)
}

type driver struct {
	client  *http.Client
	base    string
	retries int
	onRetry func()
}

// driveSession runs one session end to end against the HTTP API. With
// resume it picks up the manager's deterministic ID for the i-th session
// of a previous run and keeps driving it — the clock moves with relative
// advances, so it composes with whatever the journal recovered.
func (d *driver) driveSession(i, submits, jobs int, keep, resume bool, advance float64, observe func(time.Duration)) error {
	var sess string
	if resume {
		sess = fmt.Sprintf("%s/session/s%06d", d.base, i+1)
		if err := d.call("GET", sess, "", nil); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	} else {
		var snap struct {
			ID string `json:"id"`
		}
		// Vary the cluster shape a little so sessions are not identical.
		body := fmt.Sprintf(`{"cores": %d, "partitions": %d, "policy": "fcfs", "backfill": "easy", "seed": %d}`,
			32+(i%4)*32, 1+i%4, i+1)
		if err := d.call("POST", d.base+"/session", body, &snap); err != nil {
			return fmt.Errorf("create: %w", err)
		}
		sess = d.base + "/session/" + snap.ID
	}

	for b := 0; b < submits; b++ {
		specs := make([]string, jobs)
		for j := range specs {
			specs[j] = fmt.Sprintf(`{"procs": %d, "run": %d, "user": %d}`,
				1+(i+j)%8, 60+((i*7+j*13)%240)*10, (i+j)%6)
		}
		if err := d.call("POST", sess+"/submit",
			`{"jobs": [`+strings.Join(specs, ",")+`]}`, nil); err != nil {
			return fmt.Errorf("submit %d: %w", b, err)
		}
		// Query while the batch is still pending — "which config should
		// schedule what I just queued" is the service's core question.
		t0 := time.Now()
		err := d.call("POST", sess+"/whatif",
			`{"candidates": [{"policy":"sjf"},{"backfill":"conservative"},{"policy":"saf","backfill":"easy"}]}`, nil)
		if err != nil {
			return fmt.Errorf("whatif %d: %w", b, err)
		}
		observe(time.Since(t0))
		if err := d.call("POST", sess+"/advance",
			fmt.Sprintf(`{"by": %g}`, advance), nil); err != nil {
			return fmt.Errorf("advance %d: %w", b, err)
		}
	}
	if !keep {
		if err := d.call("DELETE", sess, "", nil); err != nil {
			return fmt.Errorf("delete: %w", err)
		}
	}
	return nil
}

// call issues one JSON request, decoding the reply into out when non-nil.
// Shed replies (429) are retried up to d.retries times after sleeping the
// server's Retry-After hint — the cooperative response to load shedding.
func (d *driver) call(method, url, body string, out interface{}) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = d.callOnce(method, url, body, out)
		var se *statusError
		if err == nil || !errors.As(err, &se) || se.code != http.StatusTooManyRequests || attempt >= d.retries {
			return err
		}
		d.onRetry()
		wait := se.retryAfter
		if wait <= 0 {
			wait = time.Second
		}
		time.Sleep(wait)
	}
}

func (d *driver) callOnce(method, url, body string, out interface{}) error {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		se := &statusError{code: resp.StatusCode, msg: strings.TrimSpace(string(raw))}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.retryAfter = time.Duration(secs) * time.Second
		}
		return fmt.Errorf("%s %s: %w", method, url, se)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: bad reply %q: %w", method, url, raw, err)
		}
	}
	return nil
}
