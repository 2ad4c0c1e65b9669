package twin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"crosssched/internal/obs"
	"crosssched/internal/par"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.TickInterval == 0 {
		cfg.TickInterval = time.Hour // keep the ticker quiet in tests
	}
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m
}

// burst builds a deterministic batch of jobs that congests a small cluster
// enough for scheduling policy to matter.
func burst(n int, at float64) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{
			Procs:    1 + (i*7)%8,
			Run:      60 * float64(1+(i*13)%40),
			Walltime: 90 * float64(1+(i*13)%40),
			User:     i % 5,
			Submit:   at + float64(i%11)*30,
		}
	}
	return specs
}

func TestSessionLifecycle(t *testing.T) {
	m := testManager(t, Config{})
	s, err := m.Create(SessionConfig{Cores: 32, Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Submit(burst(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 20 || ids[0] != 0 || ids[19] != 19 {
		t.Fatalf("ids = %v, want dense 0..19", ids)
	}

	snap, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs != 20 || snap.Completed != 0 || snap.Now != 0 {
		t.Fatalf("fresh snapshot: %+v", snap)
	}

	if err := s.AdvanceTo(4 * 3600); err != nil {
		t.Fatal(err)
	}
	snap, err = s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Completed == 0 {
		t.Fatalf("no completions after 4h on a 32-core cluster: %+v", snap)
	}
	if snap.Completed+snap.Running+snap.Queued+snap.Future != snap.Jobs {
		t.Fatalf("job classes do not partition the log: %+v", snap)
	}
	if snap.EventsEmitted == 0 {
		t.Fatalf("advance published no events: %+v", snap)
	}
	if err := s.AdvanceTo(3600); err == nil {
		t.Fatal("clock rewind accepted")
	}

	if err := m.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(burst(1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit on deleted session: %v, want ErrClosed", err)
	}
	if _, err := m.Get(s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted session: %v, want ErrNotFound", err)
	}
}

// TestEventPrefixStableAcrossSubmits pins the twin's core consistency
// contract: events published incrementally across interleaved submits and
// advances are exactly the strictly-before-clock prefix of a final
// from-scratch replay. New submissions must never contradict what
// subscribers already saw.
func TestEventPrefixStableAcrossSubmits(t *testing.T) {
	m := testManager(t, Config{EventBuffer: 4096})
	s, err := m.Create(SessionConfig{Cores: 16, Policy: sim.SJF, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe(sub)

	var got []obs.Event
	drain := func() {
		for sub.Buffered() > 0 {
			e, dropped, err := sub.Next(context.Background())
			if err != nil || dropped != 0 {
				t.Fatalf("drain: %v (dropped %d)", err, dropped)
			}
			got = append(got, e)
		}
	}

	clock := 0.0
	for round := 0; round < 5; round++ {
		if _, err := s.Submit(burst(12, clock)); err != nil {
			t.Fatal(err)
		}
		clock += 1800
		if err := s.AdvanceTo(clock); err != nil {
			t.Fatal(err)
		}
		drain()
	}

	// From-scratch reference replay of the final log, independent of the
	// session's incremental baseline.
	rec := &obs.Recorder{}
	s.mu.Lock()
	tr := s.traceOf(s.jobs)
	s.mu.Unlock()
	if _, err := sim.Run(tr, sim.Options{Policy: sim.SJF, Backfill: sim.EASY, Observer: rec}); err != nil {
		t.Fatal(err)
	}
	ref := rec.Events

	var want []obs.Event
	for _, e := range ref {
		if e.Time < clock {
			want = append(want, e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("published %d events, reference prefix has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d diverged:\npublished %+v\nreference %+v", i, got[i], want[i])
		}
	}
	// The stream the twin relies on is time-ordered.
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("event stream not time-ordered at %d: %v after %v", i, got[i].Time, got[i-1].Time)
		}
	}
}

func TestSubmitValidationAndClamping(t *testing.T) {
	m := testManager(t, Config{})
	s, err := m.Create(SessionConfig{Cores: 30, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := []JobSpec{
		{Procs: 0, Run: 10},
		{Procs: 1, Run: 0},
		{Procs: 1, Run: 10, Walltime: -1},
		{Procs: 1, Run: 10, User: -2},
		{Procs: 11, Run: 10}, // exceeds 10-core partition
		{Procs: 1, Run: 10, VC: intp(3)},
		{Procs: 1, Run: 10, Submit: -5},
	}
	for i, sp := range bad {
		if _, err := s.Submit([]JobSpec{sp}); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, sp)
		}
	}

	if err := s.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	// Requested submit before the clock is clamped, and later requests
	// can't go backwards past earlier ones.
	if _, err := s.Submit([]JobSpec{{Procs: 1, Run: 10, Submit: 50}, {Procs: 1, Run: 10, Submit: 500}, {Procs: 1, Run: 10, Submit: 200}}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	submits := []float64{s.jobs[0].Submit, s.jobs[1].Submit, s.jobs[2].Submit}
	s.mu.Unlock()
	if submits[0] != 100 || submits[1] != 500 || submits[2] != 500 {
		t.Fatalf("submits = %v, want [100 500 500] (clamped monotone)", submits)
	}
}

func TestJobCapBudget(t *testing.T) {
	m := testManager(t, Config{MaxJobs: 10})
	s, err := m.Create(SessionConfig{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(burst(10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(burst(1, 0)); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-cap submit: %v, want ErrBudget", err)
	}
}

// TestWhatIfDeterministicAcrossParallelism pins the acceptance criterion:
// same session state + seed must produce byte-identical recommendation
// JSON regardless of the worker count the fan-out runs with.
func TestWhatIfDeterministicAcrossParallelism(t *testing.T) {
	cands := []Candidate{
		{Policy: "fcfs", Backfill: "easy"},
		{Policy: "sjf", Backfill: "easy"},
		{Policy: "saf", Backfill: "conservative"},
		{Policy: "fcfs", Backfill: "adaptive", RelaxFactor: 0.2},
		{Policy: "f1", Backfill: "none"},
		{Policy: "sjf", Backfill: "easy", Faults: "mtbf=43200,mttr=3600,frac=0.25,recovery=requeue,retry=2"},
	}
	reports := make([][]byte, 0, 3)
	for _, workers := range []int{1, 4, 16} {
		m := testManager(t, Config{})
		s, err := m.Create(SessionConfig{Cores: 48, Partitions: 2, Policy: sim.FCFS, Backfill: sim.EASY, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(burst(60, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.AdvanceTo(900); err != nil {
			t.Fatal(err)
		}
		ctx := par.WithLimit(context.Background(), workers)
		rep, err := s.WhatIf(ctx, WhatIfRequest{Candidates: cands})
		if err != nil {
			t.Fatal(err)
		}
		if rep.PendingJobs == 0 || len(rep.Ranking) != len(cands) {
			t.Fatalf("report shape: pending=%d ranking=%d", rep.PendingJobs, len(rep.Ranking))
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
		m.Close()
	}
	for i := 1; i < len(reports); i++ {
		if string(reports[i]) != string(reports[0]) {
			t.Fatalf("what-if JSON differs between worker counts:\n%s\nvs\n%s", reports[0], reports[i])
		}
	}
	// Ranks must be 1..N and wait-sorted.
	var rep Report
	if err := json.Unmarshal(reports[0], &rep); err != nil {
		t.Fatal(err)
	}
	for i, o := range rep.Ranking {
		if o.Rank != i+1 {
			t.Fatalf("rank %d at position %d", o.Rank, i)
		}
		if i > 0 && o.AvgWait < rep.Ranking[i-1].AvgWait {
			t.Fatalf("ranking not sorted by wait: %v after %v", o.AvgWait, rep.Ranking[i-1].AvgWait)
		}
	}
}

func TestWhatIfErrors(t *testing.T) {
	m := testManager(t, Config{MaxCandidates: 2})
	s, err := m.Create(SessionConfig{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.WhatIf(ctx, WhatIfRequest{}); err == nil {
		t.Fatal("empty candidate list accepted")
	}
	three := []Candidate{{}, {}, {}}
	if _, err := s.WhatIf(ctx, WhatIfRequest{Candidates: three}); !errors.Is(err, ErrBudget) {
		t.Fatalf("candidate cap: %v, want ErrBudget", err)
	}
	if _, err := s.WhatIf(ctx, WhatIfRequest{Candidates: []Candidate{{}}}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty session what-if: %v, want ErrEmpty", err)
	}
	if _, err := s.Submit([]JobSpec{{Procs: 1, Run: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WhatIf(ctx, WhatIfRequest{Candidates: []Candidate{{Policy: "bogus"}}}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := s.WhatIf(ctx, WhatIfRequest{Candidates: []Candidate{{Faults: "mtbf=-1"}}}); err == nil {
		t.Fatal("bogus fault spec accepted")
	}
	// All jobs started -> nothing to recommend on.
	if err := s.AdvanceTo(1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WhatIf(ctx, WhatIfRequest{Candidates: []Candidate{{}}}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("all-started what-if: %v, want ErrEmpty", err)
	}
}

// TestHorizonKeepsSessionDurable: times past the horizon are refused before
// they reach the clock or the log. Unchecked, two 1.7e308 advances would
// put the clock at +Inf, which the journal cannot encode (the session would
// silently turn ephemeral), and a job submitted at and running for
// 1.7e308 s would end at +Inf and leave every later what-if stuck.
func TestHorizonKeepsSessionDurable(t *testing.T) {
	m := testManager(t, Config{StateDir: t.TempDir()})
	s, err := m.Create(SessionConfig{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.AdvanceBy(1.7e308); err == nil {
			t.Fatalf("advance %d past the horizon accepted", i)
		}
	}
	if err := s.AdvanceTo(math.NaN()); err == nil {
		t.Fatal("advance to NaN accepted")
	}
	for _, sp := range []JobSpec{
		{Procs: 1, Run: 1.7e308, Submit: 1.7e308},
		{Procs: 1, Run: math.NaN()},
		{Procs: 1, Run: 1, Walltime: math.Inf(1)},
	} {
		if _, err := s.Submit([]JobSpec{sp}); err == nil {
			t.Fatalf("job past the horizon accepted: %+v", sp)
		}
	}
	// The boundary itself is fine, and the session keeps working.
	if _, err := s.Submit([]JobSpec{{Procs: 1, Run: 10}, {Procs: 8, Run: horizon, Submit: horizon}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(horizon); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WhatIf(context.Background(), WhatIfRequest{Candidates: []Candidate{{Policy: "sjf"}}}); err != nil {
		t.Fatalf("what-if after boundary times: %v", err)
	}
	snap, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Durable || snap.Ephemeral || snap.Now != horizon {
		t.Fatalf("session lost durability or its clock: %+v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("status no longer encodes: %v", err)
	}
}

// TestSlowSubscriberBackpressure pins the SSE satellite: a subscriber that
// never reads loses the OLDEST events (bounded ring), the session keeps
// advancing, and tearing everything down leaks no goroutines.
func TestSlowSubscriberBackpressure(t *testing.T) {
	before := runtime.NumGoroutine()

	m := NewManager(Config{EventBuffer: 8, TickInterval: time.Hour})
	s, err := m.Create(SessionConfig{Cores: 64})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	// A reader blocked in Next on an empty buffer, like an SSE handler on
	// an idle connection; it must wake with ErrClosed on teardown.
	blocked := make(chan error, 1)
	idle, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	go func() {
		close(started)
		for {
			if _, _, err := idle.Next(context.Background()); err != nil {
				blocked <- err
				return
			}
		}
	}()
	<-started

	// `slow` never reads while the session floods it with events.
	if _, err := s.Submit(burst(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(1e6); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if snap.EventsEmitted < 100 {
		t.Fatalf("session stalled behind slow subscriber: %+v", snap)
	}
	if buf := slow.Buffered(); buf > 8 {
		t.Fatalf("subscriber buffered %d events, ring is 8", buf)
	}

	m.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, obs.ErrClosed) {
			t.Fatalf("blocked subscriber woke with %v, want obs.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked subscriber did not wake on manager close")
	}

	// The stalled ring drains its bounded remainder, reports the gap, then
	// EOFs: drop-oldest means the survivors are the newest events.
	drained, lastDropped := 0, uint64(0)
	for {
		_, d, err := slow.Next(context.Background())
		if err != nil {
			break
		}
		drained++
		lastDropped += d
	}
	if drained == 0 || drained > 8 {
		t.Fatalf("stalled subscriber drained %d events, want 1..8", drained)
	}
	if lastDropped == 0 {
		t.Fatal("no drop gap reported after flooding an 8-slot ring")
	}

	// No goroutine leak: ticker and reader are gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubscriberBudgetAndDrops(t *testing.T) {
	m := testManager(t, Config{MaxSubscribers: 2, EventBuffer: 4})
	s, err := m.Create(SessionConfig{Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-budget subscribe: %v, want ErrBudget", err)
	}

	if _, err := s.Submit(burst(30, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(1e6); err != nil {
		t.Fatal(err)
	}
	// 30 jobs -> >= 60 events through a 4-slot ring: drops must be
	// reported and the survivors must be the newest.
	_, dropped, err := a.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("no drops reported through a 4-slot ring")
	}
}

func TestManagerLRUEviction(t *testing.T) {
	m := testManager(t, Config{MaxSessions: 2})
	s1, err := m.Create(SessionConfig{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Create(SessionConfig{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Touch s1 so s2 is the LRU victim.
	if _, err := m.Get(s1.ID); err != nil {
		t.Fatal(err)
	}
	s3, err := m.Create(SessionConfig{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if _, err := m.Get(s2.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU victim still present: %v", err)
	}
	// The evicted session is closed, not just unlisted.
	if _, err := s2.Submit(burst(1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("evicted session still accepts submits: %v", err)
	}
	if _, err := m.Get(s1.ID); err != nil {
		t.Fatalf("recently used session evicted: %v", err)
	}
	if _, err := m.Get(s3.ID); err != nil {
		t.Fatal(err)
	}
}

func TestTickerAdvancesSessions(t *testing.T) {
	m := NewManager(Config{TickInterval: 10 * time.Millisecond})
	defer m.Close()
	s, err := m.Create(SessionConfig{Cores: 8, TickRate: 60})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Now() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never advanced the session clock")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProfileSessionShape(t *testing.T) {
	m := testManager(t, Config{})
	s, err := m.Create(SessionConfig{Profile: "Philly"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cores <= 0 || snap.Partitions != 14 {
		t.Fatalf("Philly shape: %+v", snap)
	}
	if _, err := m.Create(SessionConfig{Profile: "NoSuchSystem"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := m.Create(SessionConfig{}); err == nil {
		t.Fatal("shapeless session accepted")
	}
}

func intp(v int) *int { return &v }

// TestWhatIfMatchesDirectSimulation cross-checks the fork against a direct
// sim.Run with the same options: the twin adds aggregation, not new
// scheduling behavior.
func TestWhatIfMatchesDirectSimulation(t *testing.T) {
	m := testManager(t, Config{})
	s, err := m.Create(SessionConfig{Cores: 32, Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(burst(40, 0)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.WhatIf(context.Background(), WhatIfRequest{Candidates: []Candidate{{Policy: "sjf", Backfill: "easy"}}})
	if err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	tr := s.traceOf(s.jobs)
	s.mu.Unlock()
	direct, err := sim.Run(tr, sim.Options{Policy: sim.SJF, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	// At clock 0 every job is pending, so the fork's aggregates are the
	// whole-trace aggregates.
	got := rep.Ranking[0]
	if got.AvgWait != direct.AvgWait || got.AvgBsld != direct.AvgBsld || got.Utilization != direct.Utilization {
		t.Fatalf("fork disagrees with direct run:\nfork   wait=%v bsld=%v util=%v\ndirect wait=%v bsld=%v util=%v",
			got.AvgWait, got.AvgBsld, got.Utilization, direct.AvgWait, direct.AvgBsld, direct.Utilization)
	}
}

// TestWhatIfWarmMatchesCold is the warm-start regression pin: through
// repeated submit/advance/query cycles, at every worker count, every
// what-if report must be byte-identical to the reference — each candidate
// replayed by an independent sim.Run over the log. The session is queried
// twice per cycle so the second query exercises the extend-and-advance
// path on checkpoints the first one created. One configuration is asked
// for twice, and both candidates share its run.
func TestWhatIfWarmMatchesCold(t *testing.T) {
	cands := []Candidate{
		{}, // baseline config itself
		{Policy: "sjf", Backfill: "easy"},
		{Policy: "wfp3", Backfill: "conservative"},
		{Policy: "f2", Backfill: "relaxed", RelaxFactor: 0.25},
		{Policy: "sjf", Backfill: "easy", Faults: "mtbf=43200,mttr=3600,frac=0.25,recovery=requeue,retry=2"},
		{Policy: "sjf", Backfill: "easy"}, // a duplicate
	}
	cfg := SessionConfig{Cores: 48, Partitions: 3, Policy: sim.FCFS, Backfill: sim.EASY, Seed: 11}
	for _, workers := range []int{1, 4, 16} {
		m := testManager(t, Config{})
		warm, err := m.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := par.WithLimit(context.Background(), workers)
		clock := 0.0
		for cycle := 0; cycle < 3; cycle++ {
			if _, err := warm.Submit(burst(30, clock)); err != nil {
				t.Fatal(err)
			}
			clock += 600
			if err := warm.AdvanceTo(clock); err != nil {
				t.Fatal(err)
			}
			req := WhatIfRequest{Candidates: cands}
			want, err := fuzzReference(t, warm).report(t, warm, req)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 2; q++ {
				got, err := warm.WhatIf(ctx, req)
				if err != nil {
					t.Fatalf("cycle %d query %d: %v", cycle, q, err)
				}
				sameJSON(t, fmt.Sprintf("cycle %d query %d workers %d report", cycle, q, workers), got, want)
			}
		}
		// The warm table holds one entry per distinct candidate
		// configuration other than the baseline's own (which forks the
		// baseline checkpoint), fault-injected one included, not more.
		warm.warmMu.Lock()
		nWarm := len(warm.warm)
		warm.warmMu.Unlock()
		if nWarm != 4 {
			t.Fatalf("warm table has %d checkpoints, want 4", nWarm)
		}
		m.Close()
	}
}

// TestWhatIfFaultSeedOverride: a what-if whose seed overrides the
// session's forks its own warm checkpoint per fault candidate (the key
// carries the effective seed), and both seeds' reports stay byte-identical
// to the sim.Run reference — also when a query lands after the clock
// passed every submit, so the next Extend changes the outage schedule
// before the checkpoint's pause.
func TestWhatIfFaultSeedOverride(t *testing.T) {
	cands := []Candidate{
		{Faults: "mtbf=900,mttr=300,frac=0.5,pint=0.05,recovery=requeue,retry=2"},
		{Policy: "sjf", Faults: "mtbf=1200,mttr=200,frac=0.25,recovery=checkpoint,ckpt=120,retry=1"},
	}
	cfg := SessionConfig{Cores: 48, Partitions: 3, Policy: sim.FCFS, Backfill: sim.EASY, Seed: 11}
	m := testManager(t, Config{})
	warm, err := m.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	override := uint64(99)
	ctx := context.Background()
	clock := 0.0
	var faulted [2]int // interrupted attempts summed per seed
	for cycle := 0; cycle < 4; cycle++ {
		if _, err := warm.Submit(burst(30, clock)); err != nil {
			t.Fatal(err)
		}
		// Odd cycles query past the last submit (bursts span 300 s).
		clock += 150 + 1050*float64(cycle%2)
		if err := warm.AdvanceTo(clock); err != nil {
			t.Fatal(err)
		}
		for k, seed := range []*uint64{nil, &override} {
			req := WhatIfRequest{Candidates: cands, Seed: seed}
			got, err := warm.WhatIf(ctx, req)
			if err != nil {
				t.Fatalf("cycle %d seed %d: %v", cycle, k, err)
			}
			want, err := fuzzReference(t, warm).report(t, warm, req)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, fmt.Sprintf("cycle %d seed %d report", cycle, k), got, want)
			for _, o := range got.Ranking {
				faulted[k] += o.Interrupted
			}
		}
		clock += 300
	}
	if faulted[0] == 0 || faulted[1] == 0 {
		t.Fatalf("interrupted attempts per seed %v: the fault candidates are vacuous", faulted)
	}
	warm.warmMu.Lock()
	nWarm := len(warm.warm)
	warm.warmMu.Unlock()
	if nWarm != 2*len(cands) {
		t.Fatalf("warm table has %d checkpoints, want %d (one per candidate per seed)", nWarm, 2*len(cands))
	}
}

// TestWhatIfSnapshotUnderConcurrentMutations: what-ifs racing submits,
// advances and each other must fork the baseline and every candidate from
// one snapshot. The probe candidate schedules exactly like the baseline
// (relax is ignored under EASY) but has its own warm checkpoint, so any
// fork taken from a different log or clock shows up as a nonzero delta.
func TestWhatIfSnapshotUnderConcurrentMutations(t *testing.T) {
	m := testManager(t, Config{})
	s, err := m.Create(SessionConfig{Cores: 32, Partitions: 2, Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(burst(20, 0)); err != nil {
		t.Fatal(err)
	}
	probe := Candidate{Policy: "fcfs", Backfill: "easy", RelaxFactor: 0.5}
	req := WhatIfRequest{Candidates: []Candidate{{Policy: "sjf"}, probe}}
	done := make(chan struct{})
	answered := make(chan struct{}, 1) // a what-if finished since the last round
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rep, err := s.WhatIf(context.Background(), req)
				select {
				case answered <- struct{}{}:
				default:
				}
				if errors.Is(err, ErrEmpty) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, o := range rep.Ranking {
					if o.Candidate == probe && (o.DeltaWait != 0 || o.DeltaBsld != 0 || o.DeltaUtil != 0) {
						t.Errorf("probe forked from another snapshot than the baseline: %+v", o)
						return
					}
				}
			}
		}()
	}
	clock := 0.0
	for round := 0; round < 40; round++ {
		<-answered // interleave rounds with queries still in flight
		if _, err := s.Submit(burst(10, clock)); err != nil {
			t.Error(err)
			break
		}
		clock += 300
		if err := s.AdvanceTo(clock); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestWhatIfWarmTableCap pins the warm-table budget: a fresh build for a
// configuration beyond MaxCandidates entries is forked and not kept, so
// the table does not grow without bound, and the outcomes still equal the
// sim.Run reference.
func TestWhatIfWarmTableCap(t *testing.T) {
	m := testManager(t, Config{MaxCandidates: 2})
	s, err := m.Create(SessionConfig{Cores: 16, Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(burst(10, 0)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range [][]Candidate{
		{{Policy: "sjf"}, {Policy: "wfp3"}},
		{{Policy: "saf"}, {Policy: "f1"}},
	} {
		req := WhatIfRequest{Candidates: c}
		got, err := s.WhatIf(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fuzzReference(t, s).report(t, s, req)
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, "report", got, want)
	}
	s.warmMu.Lock()
	n := len(s.warm)
	s.warmMu.Unlock()
	if n != 2 {
		t.Fatalf("warm table has %d checkpoints, cap is 2", n)
	}
}

// TestWhatIfForkFallbacks pins the one table entry a what-if cannot use as
// it stands: a broken one (here an entry whose trace the log cannot
// extend) is replaced by a fresh build, and the report still equals the
// sim.Run reference.
func TestWhatIfForkFallbacks(t *testing.T) {
	m := testManager(t, Config{})
	s, err := m.Create(SessionConfig{Cores: 16, Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(burst(20, 0)); err != nil {
		t.Fatal(err)
	}
	opt := sim.Options{Policy: sim.SJF, Backfill: sim.EASY}
	key := configKey(opt)
	late, err := sim.RunToCheckpoint(s.traceOf([]trace.Job{{ID: 0, Submit: 1e9, Run: 1, Procs: 1}}), opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.warm = map[string]*sim.Checkpoint{key: late}

	req := WhatIfRequest{Candidates: []Candidate{{Policy: "sjf", Backfill: "easy"}}}
	got, err := s.WhatIf(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fuzzReference(t, s).report(t, s, req)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "broken entry report", got, want)
	if ck := s.warm[key]; ck.Len() != 20 || ck.Jobs()[0].Submit == 1e9 {
		t.Fatalf("the broken entry was not replaced by a fresh build")
	}
}

// eventsJSONL renders events in the byte-stable obs wire encoding, the
// same surface the /log endpoint and the crash test diff.
func eventsJSONL(evs []obs.Event) []byte {
	var buf, out []byte
	for _, e := range evs {
		buf = obs.AppendEventJSON(buf[:0], e)
		out = append(out, buf...)
		out = append(out, '\n')
	}
	return out
}

// TestJournalCrashRecovery is the tentpole pin: drive a durable session,
// abandon the manager without closing it (kill -9 semantics — journal file
// handles just drop), recover a second manager over the same state dir,
// and require the recovered session to reproduce the published event
// prefix byte-for-byte and keep working.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	durable := Config{StateDir: dir, Fsync: FsyncAlways, TickInterval: time.Hour}

	m1 := testManager(t, durable)
	s1, err := m1.Create(SessionConfig{Cores: 64, Partitions: 2, Policy: sim.SJF, Backfill: sim.EASY, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(burst(30, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s1.AdvanceTo(4000); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(burst(10, 4000)); err != nil {
		t.Fatal(err)
	}
	if err := s1.AdvanceTo(7000); err != nil {
		t.Fatal(err)
	}
	pre, err := s1.EmittedPrefix()
	if err != nil {
		t.Fatal(err)
	}
	if len(pre) == 0 {
		t.Fatal("setup: no events emitted before the crash")
	}
	preSnap, err := s1.Status()
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": m1 is simply never closed before m2 takes over the dir
	// (testManager's cleanup closes it at test end, after the comparison).
	m2 := testManager(t, durable)
	s2, err := m2.Get(s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Metrics(); got.TwinRecovered != 1 || got.TwinTruncations != 0 {
		t.Fatalf("recovery metrics = %+v, want 1 recovered, 0 truncations", got)
	}
	post, err := s2.EmittedPrefix()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eventsJSONL(pre), eventsJSONL(post)) {
		t.Fatalf("recovered event prefix differs:\npre  %d events\npost %d events", len(pre), len(post))
	}
	postSnap, err := s2.Status()
	if err != nil {
		t.Fatal(err)
	}
	preSnap.Subscribers = 0 // subscriptions are not durable state
	postSnap.Subscribers = 0
	if preSnap != postSnap {
		t.Fatalf("recovered snapshot differs:\npre  %+v\npost %+v", preSnap, postSnap)
	}

	// The recovered session is live: it accepts work and emits beyond the
	// recovered prefix.
	if _, err := s2.Submit(burst(5, 7000)); err != nil {
		t.Fatal(err)
	}
	if err := s2.AdvanceTo(20000); err != nil {
		t.Fatal(err)
	}
	more, err := s2.EmittedPrefix()
	if err != nil {
		t.Fatal(err)
	}
	if len(more) <= len(pre) {
		t.Fatalf("recovered session emitted nothing new (%d <= %d)", len(more), len(pre))
	}
}

// TestJournalTornTailRecovery corrupts the journal tail between runs: the
// next manager must leave the journal unread until the session's first
// Get, which truncates at the bad frame, counts it, and recovers the clean
// prefix.
func TestJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	durable := Config{StateDir: dir, Fsync: FsyncAlways, TickInterval: time.Hour}

	m1 := testManager(t, durable)
	s1, err := m1.Create(SessionConfig{Cores: 32, Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(burst(10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s1.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	seg := filepath.Join(dir, s1.ID, "000001.wal")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil { // tear into the advance frame
		t.Fatal(err)
	}

	torn, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	m2 := testManager(t, durable)
	if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("journal changed by startup (%d -> %d bytes, err %v)", len(torn), len(got), err)
	}
	if got := m2.Metrics(); got.TwinRecovered != 0 || got.TwinTruncations != 0 {
		t.Fatalf("metrics after startup = %+v, want 0 recovered, 0 truncations", got)
	}
	s2, err := m2.Get(s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(seg); err != nil || len(got) >= len(torn) || !bytes.HasPrefix(torn, got) {
		t.Fatalf("journal after first Get: %d of %d bytes (err %v), want a shorter prefix", len(got), len(torn), err)
	}
	if got := m2.Metrics(); got.TwinRecovered != 1 || got.TwinTruncations != 1 {
		t.Fatalf("metrics = %+v, want 1 recovered, 1 truncation", got)
	}
	snap, err := s2.Status()
	if err != nil {
		t.Fatal(err)
	}
	// The torn frame was the advance: the jobs survive, the clock reverts.
	if snap.Jobs != 10 || snap.Now != 0 {
		t.Fatalf("snapshot after torn-tail recovery = %+v, want 10 jobs at clock 0", snap)
	}
}

// TestManagerParkReactivate pins the spill-to-disk LRU: eviction parks a
// durable session (subscribers told "parked"), and the next Get
// transparently reactivates it with its state intact.
func TestManagerParkReactivate(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, Config{StateDir: dir, Fsync: FsyncAlways, MaxSessions: 2, TickInterval: time.Hour})
	mk := func() *Session {
		t.Helper()
		s, err := m.Create(SessionConfig{Cores: 32, Policy: sim.FCFS, Backfill: sim.EASY})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := mk()
	if _, err := s1.Submit(burst(8, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s1.AdvanceTo(2000); err != nil {
		t.Fatal(err)
	}
	want, err := s1.Status()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s1.Subscribe()
	if err != nil {
		t.Fatal(err)
	}

	mk() // s2
	mk() // s3 -> s1 (LRU) parked
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 live", m.Len())
	}
	if got := m.Metrics(); got.TwinParked != 1 {
		t.Fatalf("metrics = %+v, want 1 parked", got)
	}
	// The parked session's subscriber drains and learns why it ended.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		if _, _, err := sub.NextFrame(ctx); err != nil {
			if !errors.Is(err, obs.ErrClosed) {
				t.Fatalf("subscriber ended with %v, want ErrClosed", err)
			}
			break
		}
	}
	if reason := sub.Reason(); reason != "parked" {
		t.Fatalf("close reason = %q, want parked", reason)
	}
	if _, err := s1.Submit(burst(1, 3000)); !errors.Is(err, ErrClosed) {
		t.Fatalf("parked session object accepted a submit (err %v)", err)
	}

	// Lookup reactivates it — same ID, same state, counted — and parks
	// another victim to stay under the cap.
	s1b, err := m.Get(s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s1b == s1 {
		t.Fatal("Get returned the closed session object, not a reactivation")
	}
	got, err := s1b.Status()
	if err != nil {
		t.Fatal(err)
	}
	want.Subscribers = 0
	got.Subscribers = 0
	if want != got {
		t.Fatalf("reactivated snapshot differs:\nwant %+v\ngot  %+v", want, got)
	}
	mets := m.Metrics()
	if mets.TwinReactivated != 1 || mets.TwinRecovered != 1 || mets.TwinParked != 2 {
		t.Fatalf("metrics = %+v, want 1 reactivated, 1 recovered, 2 parked", mets)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d after reactivation, want 2", m.Len())
	}

	// Delete removes the durable state of live and parked sessions alike.
	if err := m.Delete(s1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, s1.ID)); !os.IsNotExist(err) {
		t.Fatalf("deleted session's state dir still present (err %v)", err)
	}
}

// TestGetWaitsForInFlightPark is the regression pin for the park race: a
// session that LRU eviction has taken out of the table but not yet
// registered as parked (its journal flush is in flight) must stay
// resolvable — Get waits for the park to settle and reactivates the
// session instead of answering ErrNotFound.
func TestGetWaitsForInFlightPark(t *testing.T) {
	m := testManager(t, Config{StateDir: t.TempDir(), Fsync: FsyncAlways, MaxSessions: 1, TickInterval: time.Hour})
	cfg := SessionConfig{Cores: 32, Policy: sim.FCFS, Backfill: sim.EASY}
	victim, err := m.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Submit(burst(8, 0)); err != nil {
		t.Fatal(err)
	}
	if err := victim.AdvanceTo(2000); err != nil {
		t.Fatal(err)
	}
	want, err := victim.EmittedPrefix()
	if err != nil {
		t.Fatal(err)
	}

	// Hold the park in flight: parking takes the victim's lock to close
	// its journal.
	victim.mu.Lock()
	created := make(chan error, 1)
	go func() {
		_, err := m.Create(cfg) // evicts the victim
		created <- err
	}()
	for {
		m.mu.Lock()
		_, live := m.sessions[victim.ID]
		m.mu.Unlock()
		if !live {
			break
		}
		runtime.Gosched()
	}
	type lookup struct {
		s   *Session
		err error
	}
	got := make(chan lookup, 1)
	go func() {
		s, err := m.Get(victim.ID)
		got <- lookup{s, err}
	}()
	// Get must not answer while the park is in flight; the window gives a
	// broken Get time to answer ErrNotFound.
	select {
	case g := <-got:
		victim.mu.Unlock()
		t.Fatalf("Get answered mid-park with (%v, %v); want it to wait", g.s, g.err)
	case <-time.After(50 * time.Millisecond):
	}
	victim.mu.Unlock()
	g := <-got
	if g.err != nil {
		t.Fatalf("Get during the park: %v", g.err)
	}
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if g.s.ID != victim.ID || g.s == victim {
		t.Fatalf("Get returned %p (%s), want a reactivation of %s", g.s, g.s.ID, victim.ID)
	}
	prefix, err := g.s.EmittedPrefix()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eventsJSONL(prefix), eventsJSONL(want)) {
		t.Fatalf("reactivated prefix differs: %d events, want %d", len(prefix), len(want))
	}
	if mets := m.Metrics(); mets.TwinReactivated != 1 {
		t.Fatalf("metrics = %+v, want 1 reactivation", mets)
	}
}

// TestRestoreRejectsNonDenseIDs: the baseline tap indexes jobs by ID, so a
// journal whose job IDs are not the dense log indexes Submit assigns (a
// hand-edited file with valid frames) fails recovery instead of panicking.
func TestRestoreRejectsNonDenseIDs(t *testing.T) {
	s, err := newSession("s000001", SessionConfig{Cores: 8, Policy: sim.FCFS, Backfill: sim.EASY}, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []trace.Job{{ID: 0, Submit: 0, Wait: -1, Run: 60, Procs: 1, VC: -1}, {ID: 7, Submit: 1, Wait: -1, Run: 60, Procs: 1, VC: -1}}
	if err := s.restore(jobs, 100); err == nil {
		t.Fatal("restore accepted job IDs that are not log indexes")
	}
}

// TestEphemeralDegradation sabotages the journal mid-flight: the session
// must keep serving, flag itself ephemeral, notify subscribers in-band,
// and count the degradation — never crash or fail the write path.
func TestEphemeralDegradation(t *testing.T) {
	m := testManager(t, Config{StateDir: t.TempDir(), Fsync: FsyncAlways, TickInterval: time.Hour})
	s, err := m.Create(SessionConfig{Cores: 32, Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unsubscribe(sub)
	if snap, _ := s.Status(); !snap.Durable || snap.Ephemeral {
		t.Fatalf("setup: session not durable: %+v", snap)
	}

	// Sabotage: close the journal's file descriptor out from under it, so
	// the next append fails like a dying disk.
	s.mu.Lock()
	s.jr.f.Close()
	s.mu.Unlock()

	if _, err := s.Submit(burst(5, 0)); err != nil {
		t.Fatalf("submit during journal failure must succeed, got %v", err)
	}
	snap, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Durable || !snap.Ephemeral {
		t.Fatalf("session not degraded: %+v", snap)
	}
	if got := m.Metrics(); got.TwinEphemeral != 1 {
		t.Fatalf("metrics = %+v, want 1 ephemeral", got)
	}
	// The subscriber hears about it in-band.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		f, _, err := sub.NextFrame(ctx)
		if err != nil {
			t.Fatalf("no degradation notice before %v", err)
		}
		if f.Notice != "" {
			if !strings.Contains(f.Notice, "ephemeral") {
				t.Fatalf("notice = %q, want an ephemeral-mode warning", f.Notice)
			}
			break
		}
	}
	// Still fully serving.
	if err := s.AdvanceTo(500); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(burst(3, 500)); err != nil {
		t.Fatal(err)
	}
}

// TestManagerTeardownRaces hammers Close against every concurrent entry
// point under -race: the only acceptable failures are ErrClosed and
// friends, never a panic or a race report.
func TestManagerTeardownRaces(t *testing.T) {
	for round := 0; round < 3; round++ {
		m := NewManager(Config{StateDir: t.TempDir(), Fsync: FsyncNever, MaxSessions: 4, TickInterval: time.Hour})
		seed, err := m.Create(SessionConfig{Cores: 32, Policy: sim.FCFS, Backfill: sim.EASY})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seed.Submit(burst(5, 0)); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		spawn := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f()
			}()
		}
		for i := 0; i < 4; i++ {
			spawn(func() {
				for j := 0; j < 5; j++ {
					s, err := m.Create(SessionConfig{Cores: 32, Policy: sim.FCFS, Backfill: sim.EASY})
					if err != nil {
						return
					}
					_, _ = s.Submit(burst(3, 0))
					_ = s.AdvanceTo(1000)
				}
			})
		}
		spawn(func() {
			for j := 0; j < 10; j++ {
				if _, err := m.Get(seed.ID); err != nil {
					return
				}
			}
		})
		spawn(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, _ = seed.WhatIf(ctx, WhatIfRequest{Candidates: []Candidate{{Policy: "sjf"}}})
		})
		spawn(func() {
			sub, err := seed.Subscribe()
			if err != nil {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for {
				if _, _, err := sub.NextFrame(ctx); err != nil {
					return
				}
			}
		})
		spawn(m.Close)
		close(start)
		wg.Wait()
		m.Close()
	}
}
