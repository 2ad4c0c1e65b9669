package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client issues the twin API's requests over at most nproc keep-alive
// connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sessionRun is one session being driven: a script, the session ID (given
// for a resumed session, learned from the create reply otherwise) and the
// next step. class and use key its reference replies: use is how often
// the pre-populated session was resumed before, -1 for a created one.
type sessionRun struct {
	sc         *script
	class, use int
	id         string
	pos        int
	finish     func()     // called once the session ends, if set
	rng        *rand.Rand // think times, open loop only
}

func (sr *sessionRun) end() {
	if sr.finish != nil {
		sr.finish()
	}
}

// reply is a response kept for checking once the timed phase is over.
type reply struct {
	op         opKind
	class, use int
	step       int
	body       []byte
}

// driver sends session steps and records what the load phases report.
type driver struct {
	c   *client
	ops *tally

	mu       sync.Mutex
	whatif   timedSamples // what-if latency from when each request was due
	mutate   timedSamples // create/submit/advance latency, likewise
	start    time.Time    // when the current phase started
	byOp     [numOps]samples
	replies  []reply
	sessions int // sessions that ran every step
}

// send issues one step; on success it advances the session and reports
// whether the session has more steps.
func (d *driver) send(sr *sessionRun, due time.Time) (more bool, err error) {
	st := &sr.sc.steps[sr.pos]
	method, path := "POST", "/session"
	switch st.op {
	case opSubmit:
		path = "/session/" + sr.id + "/submit"
	case opWhatIf:
		path = "/session/" + sr.id + "/whatif"
	case opAdvance:
		path = "/session/" + sr.id + "/advance"
	case opLog:
		method, path = "GET", "/session/"+sr.id+"/log"
	case opDelete:
		method, path = "DELETE", "/session/"+sr.id
	}
	var body io.Reader
	if st.body != nil {
		body = bytes.NewReader(st.body)
	}
	req, err := http.NewRequest(method, d.c.base+path, body)
	if err != nil {
		return false, err
	}
	if st.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.c.hc.Do(req)
	if err != nil {
		d.ops.fail(err)
		sr.end()
		return false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := ms(time.Since(due))
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err == nil && st.op == opCreate {
		var snap struct {
			ID string `json:"id"`
		}
		if err = json.Unmarshal(data, &snap); err == nil && snap.ID == "" {
			err = fmt.Errorf("create reply without an id: %s", data)
		}
		sr.id = snap.ID
	}
	if err != nil {
		d.ops.fail(err)
		sr.end()
		return false, err
	}
	d.ops.ok()
	d.byOp[st.op].add(lat)
	switch {
	case st.op == opWhatIf:
		d.whatif.add(due.Sub(d.start).Seconds(), lat)
	case st.op.mutating():
		d.mutate.add(due.Sub(d.start).Seconds(), lat)
	}
	if st.op == opWhatIf || st.op == opLog {
		d.mu.Lock()
		d.replies = append(d.replies, reply{op: st.op, class: sr.class, use: sr.use, step: sr.pos, body: data})
		d.mu.Unlock()
	}
	sr.pos++
	if sr.pos == len(sr.sc.steps) {
		d.mu.Lock()
		d.sessions++
		d.mu.Unlock()
		sr.end()
		return false, nil
	}
	return true, nil
}

// verify checks every kept reply against its in-process reference and
// counts a mismatch as a failed operation.
func (d *driver) verify(rf *refs) {
	for _, rp := range d.replies {
		ref := rf.lookup(rp.class, rp.use)
		if ref.err != nil {
			d.ops.mismatch(ref.err)
			continue
		}
		switch rp.op {
		case opWhatIf:
			got, err := decodeReport(rp.body)
			if err != nil {
				d.ops.mismatch(fmt.Errorf("what-if reply: %w", err))
			} else if want := ref.reports[rp.step]; want == nil || !reflect.DeepEqual(got, want) {
				d.ops.mismatch(fmt.Errorf("what-if report differs from the in-process twin: got %s", rp.body))
			}
		case opLog:
			if want := ref.logs[rp.step]; !bytes.Equal(rp.body, want) {
				d.ops.mismatch(fmt.Errorf("resumed /log prefix (%d bytes) differs from the in-process twin's (%d bytes)",
					len(rp.body), len(want)))
			}
		}
	}
	d.replies = nil
}

// openLoop is the open-loop phase: round(rate*dur) sessions arrive at uniformly
// random times in [0, dur) — a Poisson process of that rate, conditioned on
// its count. A session's first request is due at its arrival; each later
// request is due when the previous one completes, after an exponentially
// distributed think time of mean think before each new batch (drawn from
// the session's own seeded stream). At most conns requests are in flight;
// the rest wait in the order they fell due, and that wait counts in their
// latency. It returns how late the generator released requests (ms).
func (d *driver) openLoop(seed uint64, rate float64, dur, think time.Duration, conns int, next func() *sessionRun) *samples {
	rng := rand.New(rand.NewPCG(seed, 0x0be7))
	n := int(math.Round(rate * dur.Seconds()))
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = rng.Float64() * dur.Seconds()
	}
	sort.Float64s(offsets)
	type pending struct {
		sr  *sessionRun
		due time.Time
	}
	// Each session has at most one request queued or pending, so the
	// arrival count bounds the queue.
	queue := make(chan pending, n+1)
	lateness := &samples{}
	release := func(p pending) {
		lateness.addDur(time.Since(p.due))
		queue <- p
	}
	var live, workers sync.WaitGroup
	for i := 0; i < conns; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for p := range queue {
				more, err := d.send(p.sr, p.due)
				if !more || err != nil {
					live.Done()
					continue
				}
				var pause time.Duration
				if p.sr.sc.steps[p.sr.pos].think {
					pause = time.Duration(p.sr.rng.ExpFloat64() * float64(think))
				}
				next := pending{sr: p.sr, due: time.Now().Add(pause)}
				if pause <= 0 {
					queue <- next
					continue
				}
				time.AfterFunc(pause, func() { release(next) })
			}
		}()
	}
	d.start = time.Now()
	for i, off := range offsets {
		sr := next()
		sr.rng = rand.New(rand.NewPCG(seed, uint64(i)+1))
		due := d.start.Add(time.Duration(off * float64(time.Second)))
		time.Sleep(time.Until(due))
		live.Add(1)
		release(pending{sr: sr, due: due})
	}
	live.Wait()
	close(queue)
	workers.Wait()
	return lateness
}

// closedLoop drives one window of the closed-loop phase: conns workers
// each drive whole sessions back to back until count sessions have
// started. It returns once every one has ended, with how many completed
// every step and how long that took.
func (d *driver) closedLoop(count, conns int, next func() *sessionRun) (int, time.Duration) {
	d.mu.Lock()
	before := d.sessions
	d.mu.Unlock()
	var started atomic.Int64
	d.start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for started.Add(1) <= int64(count) {
				sr := next()
				for {
					more, err := d.send(sr, time.Now())
					if !more || err != nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	took := time.Since(d.start)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sessions - before, took
}
