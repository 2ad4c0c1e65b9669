package twin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes struct{ b []byte }

func (f *fuzzBytes) next() int {
	if len(f.b) == 0 {
		return 0
	}
	v := f.b[0]
	f.b = f.b[1:]
	return int(v)
}

// FuzzSessionMatchesFullReplay is the differential pin on the twin's
// incremental baseline. Byte-derived sequences of Submit, AdvanceBy,
// Status, WhatIf and EmittedPrefix run against a session; every Snapshot,
// Report and emitted prefix must equal, as JSON, a reference computed
// from a cold sim.Run with an obs.Recorder over the same log. At the end a
// session restored from the log (recovery and reactivation) must agree
// with the reference too.
func FuzzSessionMatchesFullReplay(f *testing.F) {
	f.Add([]byte{40, 1, 1, 1, 0, 0, 5, 9, 9, 9, 9, 9, 1, 30, 30, 2, 3, 2, 1, 2, 4, 0, 3, 1, 1, 200, 3, 3, 2, 0, 4, 2})
	f.Add([]byte{63, 3, 8, 2, 7, 1, 0, 5, 200, 100, 3, 7, 2, 50, 1, 10, 10, 3, 2, 4, 3, 1, 0, 5, 3, 2, 5, 0, 1, 0, 7, 4, 4, 0, 2, 1, 90, 90, 2, 3, 1, 1, 4})
	f.Add([]byte{17, 2, 4, 3, 0, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1, 1, 1, 3, 0, 0, 0, 4, 0, 3, 4, 4, 4, 4})
	// Fault what-ifs before and after an advance past every submit, one
	// with a seed override: the next submit's Extend rebuilds the fault
	// checkpoints.
	f.Add([]byte{36, 1, 0, 2, 5, 1, 0, 4, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10, 0, 0,
		3, 200, 1, 10, 0, 0, 3, 0, 0, 0, 1, 2, 1, 1, 100, 100, 3, 0, 0, 0, 1, 2, 1, 0, 4, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10,
		0, 0, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10, 0, 0, 3, 0, 0, 0, 1, 2, 1, 2, 3, 1, 0, 0, 1, 2, 2, 2, 1,
		4, 0, 77, 1, 100, 100, 0, 4, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10, 0, 0, 3, 200, 1, 10, 0, 0, 3,
		200, 1, 10, 0, 0, 3, 1, 0, 0, 1, 2, 2, 2, 1, 4, 0, 77, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{b: data}
		cfg := SessionConfig{
			Cores:      4 + in.next()%60,
			Partitions: 1 + in.next()%4,
			Policy:     sim.Policies[in.next()%len(sim.Policies)],
			Backfill:   sim.Backfills[in.next()%len(sim.Backfills)],
			Seed:       uint64(in.next()),
		}
		var limits Config
		if in.next()%4 == 0 {
			// fuzzWhatIf's largest fan-out: a session that queries more
			// distinct configurations forks builds it does not keep.
			limits.MaxCandidates = 3
		}
		s, err := newSession("fuzz", cfg, limits.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		minCap := s.caps[0]
		for _, c := range s.caps {
			minCap = min(minCap, c)
		}
		for op := 0; op < 48 && len(in.b) > 0; op++ {
			switch in.next() % 5 {
			case 0:
				if len(s.jobs) >= 300 {
					continue
				}
				specs := make([]JobSpec, 1+in.next()%6)
				for i := range specs {
					sp := JobSpec{
						Procs:  1 + in.next()%minCap,
						Run:    float64(1 + in.next()*13),
						User:   in.next() % 5,
						Submit: s.Now() + float64(in.next()*7),
					}
					if in.next()%3 > 0 {
						sp.Walltime = sp.Run * (0.5 + float64(in.next())/255)
					}
					if vc := in.next()%(cfg.Partitions+1) - 1; vc >= 0 {
						sp.VC = &vc
					}
					specs[i] = sp
				}
				if _, err := s.Submit(specs); err != nil {
					t.Fatalf("op %d: submit: %v", op, err)
				}
			case 1:
				if err := s.AdvanceBy(float64(in.next() * in.next())); err != nil {
					t.Fatalf("op %d: advance: %v", op, err)
				}
			case 2:
				got, err := s.Status()
				if err != nil {
					t.Fatalf("op %d: status: %v", op, err)
				}
				ref := fuzzReference(t, s)
				sameJSON(t, "snapshot", got, ref.snapshot(s))
			case 3:
				req := fuzzWhatIf(in)
				got, gotErr := s.WhatIf(context.Background(), req)
				want, wantErr := fuzzReference(t, s).report(t, s, req)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && errors.Is(gotErr, ErrEmpty) != errors.Is(wantErr, ErrEmpty)) {
					t.Fatalf("op %d: what-if error %v, reference %v", op, gotErr, wantErr)
				}
				if gotErr == nil {
					sameJSON(t, "report", got, want)
				}
			case 4:
				got, err := s.EmittedPrefix()
				if err != nil {
					t.Fatalf("op %d: prefix: %v", op, err)
				}
				if g, w := eventsJSONL(got), eventsJSONL(fuzzReference(t, s).prefix); !bytes.Equal(g, w) {
					t.Fatalf("op %d: emitted prefix differs:\n%s\nreference\n%s", op, g, w)
				}
			}
		}

		ref := fuzzReference(t, s)
		r, err := newSession("fuzz", cfg, limits.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.restore(append([]trace.Job(nil), ref.jobs...), ref.now); err != nil {
			t.Fatal(err)
		}
		got, err := r.EmittedPrefix()
		if err != nil {
			t.Fatal(err)
		}
		if g, w := eventsJSONL(got), eventsJSONL(ref.prefix); !bytes.Equal(g, w) {
			t.Fatalf("restored prefix differs:\n%s\nreference\n%s", g, w)
		}
		snap, err := r.Status()
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, "restored snapshot", snap, ref.snapshot(r))
	})
}

// fuzzWhatIf draws a what-if of one to three candidates, sometimes the
// baseline's own configuration, sometimes fault-injected under any
// recovery mode, and sometimes with a seed override. Advances often carry
// the clock past every submit, so a fault candidate's next Extend also
// runs the checkpoint rebuild path.
func fuzzWhatIf(in *fuzzBytes) WhatIfRequest {
	policies := []string{"", "fcfs", "sjf", "wfp3", "f2", "fair"}
	backfills := []string{"", "none", "easy", "conservative", "relaxed", "adaptive"}
	faults := []string{
		"mtbf=20000,mttr=3600,frac=0.5,recovery=requeue",
		"mtbf=3000,mttr=600,frac=0.25,pint=0.05,recovery=checkpoint,ckpt=300,retry=2",
		"pint=0.1,recovery=none",
		"mtbf=5000,mttr=900,frac=0.5,horizon=40000,recovery=requeue,retry=1",
	}
	var req WhatIfRequest
	req.Candidates = make([]Candidate, 1+in.next()%3)
	for i := range req.Candidates {
		c := Candidate{
			Policy:   policies[in.next()%len(policies)],
			Backfill: backfills[in.next()%len(backfills)],
		}
		if in.next()%4 == 0 {
			c.RelaxFactor = 0.25
		}
		if f := in.next(); f%2 == 0 {
			c.Faults = faults[f/2%len(faults)]
		}
		req.Candidates[i] = c
	}
	if in.next()%3 == 0 {
		seed := uint64(in.next())
		req.Seed = &seed
	}
	return req
}

// fuzzRef is a session's state recomputed from scratch: one cold recorded
// run of its log, and the events strictly before its clock.
type fuzzRef struct {
	jobs   []trace.Job
	now    float64
	res    *sim.Result // nil for an empty log
	prefix []obs.Event
}

func fuzzReference(t *testing.T, s *Session) *fuzzRef {
	t.Helper()
	s.mu.Lock()
	ref := &fuzzRef{jobs: s.jobs[:len(s.jobs):len(s.jobs)], now: s.now}
	s.mu.Unlock()
	if len(ref.jobs) == 0 {
		return ref
	}
	rec := &obs.Recorder{}
	opt := s.baseOptions()
	opt.Observer = rec
	res, err := sim.Run(s.traceOf(ref.jobs), opt)
	if err != nil {
		t.Fatal(err)
	}
	ref.res = res
	for _, e := range rec.Events {
		if e.Time < ref.now {
			ref.prefix = append(ref.prefix, e)
		}
	}
	return ref
}

// snapshot is the Snapshot s should report: jobs classified by the
// reference prefix's events.
func (ref *fuzzRef) snapshot(s *Session) Snapshot {
	snap := Snapshot{
		ID: s.ID, Now: ref.now, Profile: s.cfg.Profile, Cores: s.cfg.Cores, Partitions: s.cfg.Partitions,
		Policy: s.cfg.Policy.String(), Backfill: s.cfg.Backfill.String(), Seed: s.cfg.Seed, TickRate: s.cfg.TickRate,
		Jobs: len(ref.jobs), EventsEmitted: len(ref.prefix),
	}
	waits := make(map[int]float64)
	var arrived, started int
	var waitSum float64
	for _, e := range ref.prefix {
		switch e.Kind {
		case obs.JobSubmit:
			arrived++
		case obs.JobStart:
			started++
			waits[e.Job] = e.Detail
		case obs.JobComplete:
			snap.Completed++
			waitSum += waits[e.Job]
		}
	}
	snap.Running = started - snap.Completed
	snap.Queued = arrived - started
	snap.Future = len(ref.jobs) - arrived
	if snap.Completed > 0 {
		snap.AvgWaitCompleted = waitSum / float64(snap.Completed)
	}
	return snap
}

// report is the Report s should give for req: every candidate replayed
// cold over the reference log and scored against the reference baseline.
func (ref *fuzzRef) report(t *testing.T, s *Session, req WhatIfRequest) (*Report, error) {
	t.Helper()
	if ref.res == nil {
		return nil, ErrEmpty
	}
	seed := s.cfg.Seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	results := make([]*sim.Summary, len(req.Candidates))
	for i, c := range req.Candidates {
		opt, err := s.candidateOptions(c, seed)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		res, err := sim.Run(s.traceOf(ref.jobs), opt)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		results[i] = res.Summary()
	}
	return buildReport(s.ID, s.cfg, ref.now, seed, req.Candidates, ref.jobs, ref.res.Summary(), results)
}

func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s differs from the full-replay reference:\n%s\nreference\n%s", what, g, w)
	}
}
