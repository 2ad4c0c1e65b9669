package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"crosssched/internal/obs"
	"crosssched/internal/twin"
)

// apiConfig bounds the twin API's load: concurrency gates per endpoint
// class and a wall-clock budget per what-if. The zero value disables
// every limit (today's behavior).
type apiConfig struct {
	// MaxWhatIf and MaxMutate cap concurrent in-flight requests in the
	// what-if class and the mutation class (create/submit/advance). An
	// over-limit request is shed immediately with 429 + Retry-After
	// instead of queuing; 0 means unlimited.
	MaxWhatIf int
	MaxMutate int
	// WhatIfBudget bounds one what-if fork's wall time; a fork that blows
	// it is canceled and answered 429 + Retry-After (0 = unbounded).
	WhatIfBudget time.Duration
	// RetryAfter is the back-off hint carried on every 429 (default 1s).
	RetryAfter time.Duration
}

// registerTwinAPI mounts the digital-twin session API:
//
//	POST   /session              create a session
//	GET    /session/{id}         status snapshot
//	DELETE /session/{id}         tear the session down
//	POST   /session/{id}/submit  append jobs to the submission log
//	POST   /session/{id}/advance move the simulation clock forward
//	POST   /session/{id}/whatif  fork the twin under candidate configs
//	GET    /session/{id}/events  SSE stream of scheduling decision events
//	GET    /session/{id}/log     published decision-event prefix as JSONL
//	GET    /twin/metrics         durability + shedding counters
func registerTwinAPI(mux *http.ServeMux, mgr *twin.Manager, cfg apiConfig) *twinAPI {
	a := newTwinAPI(mgr, cfg)
	mux.HandleFunc("POST /session", a.shed(a.mutateSem, &a.shedMutate, a.create))
	mux.HandleFunc("GET /session/{id}", a.status)
	mux.HandleFunc("DELETE /session/{id}", a.delete)
	mux.HandleFunc("POST /session/{id}/submit", a.shed(a.mutateSem, &a.shedMutate, a.submit))
	mux.HandleFunc("POST /session/{id}/advance", a.shed(a.mutateSem, &a.shedMutate, a.advance))
	mux.HandleFunc("POST /session/{id}/whatif", a.shed(a.whatIfSem, &a.shedWhatIf, a.whatIf))
	mux.HandleFunc("GET /session/{id}/events", a.events)
	mux.HandleFunc("GET /session/{id}/log", a.eventLog)
	mux.HandleFunc("GET /twin/metrics", a.metrics)
	return a
}

type twinAPI struct {
	mgr *twin.Manager
	cfg apiConfig

	// Concurrency gates (nil = ungated): a non-blocking semaphore try —
	// full means shed now, never queue.
	whatIfSem chan struct{}
	mutateSem chan struct{}
	// Requests shed at each gate, reported by /twin/metrics.
	shedWhatIf atomic.Int64
	shedMutate atomic.Int64
}

func newTwinAPI(mgr *twin.Manager, cfg apiConfig) *twinAPI {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	a := &twinAPI{mgr: mgr, cfg: cfg}
	if cfg.MaxWhatIf > 0 {
		a.whatIfSem = make(chan struct{}, cfg.MaxWhatIf)
	}
	if cfg.MaxMutate > 0 {
		a.mutateSem = make(chan struct{}, cfg.MaxMutate)
	}
	return a
}

// shed wraps h in a concurrency gate: acquire a slot or answer 429 +
// Retry-After immediately. Load is refused at the door, not queued where
// it would add latency for everyone.
func (a *twinAPI) shed(sem chan struct{}, count *atomic.Int64, h http.HandlerFunc) http.HandlerFunc {
	if sem == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			h(w, r)
		default:
			count.Add(1)
			a.retryLater(w, "overloaded: concurrency limit reached")
		}
	}
}

// retryLater answers 429 with the configured Retry-After hint.
func (a *twinAPI) retryLater(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", retryAfterValue(a.cfg.RetryAfter))
	http.Error(w, msg, http.StatusTooManyRequests)
}

// retryAfterValue renders a Retry-After header value: integral seconds,
// minimum 1 (the header has no sub-second form).
func retryAfterValue(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// createRequest is the POST /session body. Every field is optional; the
// zero value is a single-pool cluster only if cores is given, so either
// profile or cores is required.
type createRequest struct {
	Profile    string  `json:"profile,omitempty"`
	Cores      int     `json:"cores,omitempty"`
	Partitions int     `json:"partitions,omitempty"`
	Policy     string  `json:"policy,omitempty"`
	Backfill   string  `json:"backfill,omitempty"`
	Relax      float64 `json:"relax,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	TickRate   float64 `json:"tick_rate,omitempty"`
}

func (a *twinAPI) create(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decode(w, r, &req) {
		return
	}
	cfg := twin.SessionConfig{
		Profile:     req.Profile,
		Cores:       req.Cores,
		Partitions:  req.Partitions,
		RelaxFactor: req.Relax,
		Seed:        req.Seed,
		TickRate:    req.TickRate,
	}
	var err error
	if req.Policy != "" {
		if cfg.Policy, err = twin.ParsePolicy(req.Policy); err != nil {
			a.httpError(w, err)
			return
		}
	}
	if req.Backfill != "" {
		if cfg.Backfill, err = twin.ParseBackfill(req.Backfill); err != nil {
			a.httpError(w, err)
			return
		}
	}
	s, err := a.mgr.Create(cfg)
	if err != nil {
		a.httpError(w, err)
		return
	}
	snap, err := s.Status()
	if err != nil {
		a.httpError(w, err)
		return
	}
	reply(w, http.StatusCreated, snap)
}

// session resolves {id}, writing the error reply itself on failure.
func (a *twinAPI) session(w http.ResponseWriter, r *http.Request) *twin.Session {
	s, err := a.mgr.Get(r.PathValue("id"))
	if err != nil {
		a.httpError(w, err)
		return nil
	}
	return s
}

func (a *twinAPI) status(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	snap, err := s.Status()
	if err != nil {
		a.httpError(w, err)
		return
	}
	reply(w, http.StatusOK, snap)
}

func (a *twinAPI) delete(w http.ResponseWriter, r *http.Request) {
	if err := a.mgr.Delete(r.PathValue("id")); err != nil {
		a.httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *twinAPI) submit(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	var req struct {
		Jobs []twin.JobSpec `json:"jobs"`
	}
	if !decode(w, r, &req) {
		return
	}
	ids, err := s.Submit(req.Jobs)
	if err != nil {
		a.httpError(w, err)
		return
	}
	reply(w, http.StatusOK, struct {
		IDs []int   `json:"ids"`
		Now float64 `json:"now"`
	}{ids, s.Now()})
}

func (a *twinAPI) advance(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	var req struct {
		By *float64 `json:"by,omitempty"`
		To *float64 `json:"to,omitempty"`
	}
	if !decode(w, r, &req) {
		return
	}
	var err error
	switch {
	case req.By != nil && req.To != nil:
		err = fmt.Errorf("twin: give either by or to, not both")
	case req.By != nil:
		err = s.AdvanceBy(*req.By)
	case req.To != nil:
		err = s.AdvanceTo(*req.To)
	default:
		err = fmt.Errorf("twin: advance needs by or to")
	}
	if err != nil {
		a.httpError(w, err)
		return
	}
	snap, err := s.Status()
	if err != nil {
		a.httpError(w, err)
		return
	}
	reply(w, http.StatusOK, snap)
}

func (a *twinAPI) whatIf(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	var req twin.WhatIfRequest
	if !decode(w, r, &req) {
		return
	}
	ctx := r.Context()
	if a.cfg.WhatIfBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.cfg.WhatIfBudget)
		defer cancel()
	}
	rep, err := s.WhatIf(ctx, req)
	if err != nil {
		// Our deadline (not the client hanging up) means the fork blew its
		// budget: shed it like any other overload.
		if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil {
			a.shedWhatIf.Add(1)
			a.retryLater(w, "what-if canceled: deadline budget exceeded")
			return
		}
		a.httpError(w, err)
		return
	}
	reply(w, http.StatusOK, rep)
}

// eventLog dumps the session's published decision-event prefix as JSONL —
// exactly the events SSE subscribers have been sent, in the byte-stable
// obs wire encoding. The crash test diffs this across a kill/restart.
func (a *twinAPI) eventLog(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	evs, err := s.EmittedPrefix()
	if err != nil {
		a.httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	var buf []byte
	for _, e := range evs {
		buf = obs.AppendEventJSON(buf[:0], e)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
}

// metrics reports the manager's durability counters plus the API's
// shedding counters.
func (a *twinAPI) metrics(w http.ResponseWriter, r *http.Request) {
	reply(w, http.StatusOK, struct {
		obs.Metrics
		ShedWhatIf int64 `json:"shed_whatif"`
		ShedMutate int64 `json:"shed_mutate"`
	}{a.mgr.Metrics(), a.shedWhatIf.Load(), a.shedMutate.Load()})
}

// events streams the session's scheduling decisions as server-sent events:
// `event: obs` frames carry one decision as JSON; when a slow client
// overruns its bounded buffer an `event: dropped` frame reports how many
// events the gap swallowed; `event: notice` frames carry out-of-band
// state-change announcements (e.g. the session degrading to ephemeral
// mode). When the session goes away a terminal `event: gone` frame names
// why — closed, evicted, or parked (parked sessions come back on the next
// API call; resubscribe to continue) — before the stream ends. A client
// disconnect ends the stream with no terminal frame.
func (a *twinAPI) events(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	sub, err := s.Subscribe()
	if err != nil {
		a.httpError(w, err)
		return
	}
	defer s.Unsubscribe(sub)

	// The server's WriteTimeout would kill a long-lived stream; replace it
	// with a per-write deadline so only a genuinely stuck client is cut.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	var buf []byte
	for {
		f, dropped, err := sub.NextFrame(r.Context())
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone: nobody left to tell
			}
			// Session closed under us: say why before EOF.
			reason := sub.Reason()
			if reason == "" {
				reason = "closed"
			}
			_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if _, err := fmt.Fprintf(w, "event: gone\ndata: %s\n\n", reason); err == nil {
				_ = rc.Flush()
			}
			return
		}
		_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if dropped > 0 {
			if _, err := fmt.Fprintf(w, "event: dropped\ndata: %d\n\n", dropped); err != nil {
				return
			}
		}
		if f.Notice != "" {
			if _, err := fmt.Fprintf(w, "event: notice\ndata: %s\n\n", f.Notice); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
			continue
		}
		buf = obs.AppendEventJSON(buf[:0], f.Event)
		if _, err := fmt.Fprintf(w, "event: obs\ndata: %s\n\n", buf); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
	}
}

// decode reads a bounded JSON body, replying 400 on garbage.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// httpError maps twin sentinels to status codes; anything else is a
// validation failure. Every 429 carries Retry-After so clients can back
// off sanely.
func (a *twinAPI) httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, twin.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, twin.ErrBudget):
		code = http.StatusTooManyRequests
	case errors.Is(err, twin.ErrClosed):
		code = http.StatusGone
	case errors.Is(err, twin.ErrEmpty):
		code = http.StatusConflict
	}
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterValue(a.cfg.RetryAfter))
	}
	http.Error(w, err.Error(), code)
}

// reply writes a JSON response.
func reply(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
