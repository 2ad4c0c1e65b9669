package sim

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"crosssched/internal/cluster"
	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// Checkpoint is a paused simulation that can be extended with future
// arrivals, advanced further, and forked into what-if runs. Because
// runUntil's pause leaves the simulator in exactly the state a full run
// passes through, a fork run to completion is float-for-float identical to
// a cold run of the same (possibly extended) trace under the same options —
// the property the digital twin's warm-started what-if forks rely on: the
// twin keeps one checkpoint per candidate configuration at the session
// clock and forks it per query instead of replaying the whole submission
// log from t=0 every time.
//
// A checkpoint created with Options.Observer set has an event tap: the
// observer sees the decision events of the checkpoint's own run (creation
// and AdvanceTo) — exactly the events strictly before the pause time, in
// the order a cold run emits them — and nothing from forks, which stay
// headless. The twin's baseline schedule is such a checkpoint: its tap is
// the session's published event stream.
//
// All methods are safe for concurrent use. Fork and WhatIf hold the lock
// only while cloning; forks then run independently.
type Checkpoint struct {
	mu      sync.Mutex
	opt     Options
	sys     trace.System
	jobs    []trace.Job // owned, append-only
	nParts  int
	caps    []int
	s       simulator // owns its cluster; never pooled
	pauseAt float64
	broken  error // a failed advance poisons the checkpoint

	rebuilds int // Extends that re-ran the trace (fault schedule changed before the pause)
}

// RunToCheckpoint validates tr, runs it under opt up to (exclusively)
// pauseAt, and returns the paused simulation. Fault injection is
// checkpointed like the rest of the state: the compiled fault schedule is
// immutable and every interrupt draw is a pure hash of (seed, job,
// attempt), so a fork carries the per-job attempt state and shares the
// schedule. opt.Observer becomes the checkpoint's event tap (it is called
// with the checkpoint's lock held, so it must not call back into the
// checkpoint); Metrics is ignored. The trace and opt.Faults are copied;
// the caller's values are not retained.
func RunToCheckpoint(tr *trace.Trace, opt Options, pauseAt float64) (*Checkpoint, error) {
	tap := opt.Observer
	opt.Observer = nil // forks inherit opt; only the checkpoint's own run is tapped
	opt.Metrics = nil
	opt.Faults = opt.Faults.Clone()
	opt = opt.WithDefaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	nParts := tr.System.VirtualClusters
	if nParts < 1 {
		nParts = 1
	}
	caps := cluster.EvenPartitions(tr.System.TotalCores, nParts)
	cl, err := cluster.NewPartitioned(caps)
	if err != nil {
		return nil, fmt.Errorf("sim: invalid cluster shape (%d cores, %d partitions): %w",
			tr.System.TotalCores, nParts, err)
	}
	for i := range tr.Jobs {
		if err := checkFit(&tr.Jobs[i], cl); err != nil {
			return nil, err
		}
	}
	ck := &Checkpoint{
		opt:     opt,
		sys:     tr.System,
		jobs:    append([]trace.Job(nil), tr.Jobs...),
		nParts:  nParts,
		caps:    caps,
		pauseAt: pauseAt,
	}
	if err := ck.start(cl, tap); err != nil {
		return nil, err
	}
	return ck, nil
}

// start runs the checkpoint's trace on cl from t=0 up to its pause time,
// with tap as its event tap.
func (ck *Checkpoint) start(cl *cluster.Cluster, tap obs.Observer) error {
	own := &trace.Trace{System: ck.sys, Jobs: ck.jobs}
	ck.s.reset(context.Background(), own, ck.opt, cl, ck.nParts)
	if ck.opt.Faults.Enabled() {
		if err := ck.s.setupFaults(own, ck.opt.Faults, cl); err != nil {
			return err
		}
	}
	ck.s.obsv = tap
	return ck.s.runUntil(ck.pauseAt)
}

// Len returns the number of jobs in the checkpoint's trace.
func (ck *Checkpoint) Len() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.jobs)
}

// Jobs returns the checkpoint's trace as of this call. The slice is shared
// and must be treated as read-only; Extend only appends beyond its length,
// so it stays valid.
func (ck *Checkpoint) Jobs() []trace.Job {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.jobs[:len(ck.jobs):len(ck.jobs)]
}

// Extend appends future arrivals to the checkpoint's trace. The jobs must
// continue the existing submit order and arrive at or after the pause time
// (events before it have already been processed and cannot be revised); an
// append-only log whose writes are clamped to the advancing clock — the
// twin's submission log — satisfies this by construction.
//
// Under generated outages with the default horizon (the trace's last
// submit), a later last submit changes the fault schedule, so Extend
// recompiles it. When the new schedule adds no outage before the pause
// time — always so when the checkpoint paused at or before the old last
// submit — it is spliced into the paused run. Otherwise the history before
// the pause changed and the checkpoint is rebuilt by one run of the
// extended trace up to the pause time; a tapped checkpoint cannot revise
// events its tap already saw, so there Extend fails and leaves it as it
// was.
func (ck *Checkpoint) Extend(jobs []trace.Job) error {
	if len(jobs) == 0 {
		return nil
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.broken != nil {
		return ck.broken
	}
	horizon := 0.0 // the trace's last submit: the fault layer's default horizon
	if n := len(ck.jobs); n > 0 {
		horizon = ck.jobs[n-1].Submit
	}
	last := max(ck.pauseAt, horizon)
	for i := range jobs {
		j := &jobs[i]
		if err := j.Validate(); err != nil {
			return fmt.Errorf("sim: checkpoint extend: %w", err)
		}
		if j.Submit < last {
			return fmt.Errorf("sim: checkpoint extend: job %d at %v arrives before %v (already simulated)",
				j.ID, j.Submit, last)
		}
		last = j.Submit
		if err := checkFit(j, ck.s.cl); err != nil {
			return err
		}
	}
	s := &ck.s
	sched, rebuild, err := s.flt.recompile(ck.caps, horizon, last, ck.pauseAt)
	if err != nil {
		return fmt.Errorf("sim: checkpoint extend: %w", err)
	}
	if rebuild {
		if s.obsv != nil {
			return fmt.Errorf("sim: checkpoint extend: the fault schedule gains outages before the pause time %v, which the event tap has already passed", ck.pauseAt)
		}
		ck.jobs = append(ck.jobs, jobs...)
		ck.rebuilds++
		s.cl.Reset()
		if err := ck.start(s.cl, nil); err != nil {
			ck.broken = fmt.Errorf("sim: checkpoint rebuild failed: %w", err)
			return ck.broken
		}
		return nil
	}
	ck.jobs = append(ck.jobs, jobs...)
	s.jobs = ck.jobs
	// Grow the row page alongside; the in-flight arena is sized by the
	// jobs in flight and has nothing to grow.
	rows := &s.rows.pages[0]
	rows.jobs = ck.jobs
	rows.waits = append(rows.waits, make([]float64, len(jobs))...)
	for range jobs {
		rows.promised = append(rows.promised, -1)
	}
	if s.flt != nil {
		s.flt.grow(len(jobs))
		if sched != nil {
			s.flt.splice(sched)
		}
	}
	return nil
}

// AdvanceTo moves the pause time forward to t, processing every event
// strictly before it. Times at or before the current pause are a no-op, so
// concurrent callers with different clocks compose (the later one wins).
func (ck *Checkpoint) AdvanceTo(t float64) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.broken != nil {
		return ck.broken
	}
	if t <= ck.pauseAt {
		return nil
	}
	if err := ck.s.runUntil(t); err != nil {
		ck.broken = fmt.Errorf("sim: checkpoint advance failed: %w", err)
		return ck.broken
	}
	ck.pauseAt = t
	return nil
}

// WhatIf forks the paused simulation and runs the fork to completion,
// returning the full-trace Result — identical to a cold run of the
// checkpoint's current trace under its options. The checkpoint itself is
// not advanced; forks are independent and may run concurrently.
func (ck *Checkpoint) WhatIf(ctx context.Context) (*Result, error) {
	f, err := ck.Fork()
	if err != nil {
		return nil, err
	}
	return f.Run(ctx)
}

// Fork is a headless copy of a paused checkpoint, taken by
// Checkpoint.Fork and driven to completion by Run.
type Fork struct {
	s simulator
}

// Fork clones the paused simulation. The fork reflects the checkpoint as
// of this call: a caller that must pin a fork to a state it also guards
// (the twin's session lock) takes the fork under that lock and runs it
// outside, unaffected by later Extend or AdvanceTo calls.
func (ck *Checkpoint) Fork() (*Fork, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.broken != nil {
		return nil, ck.broken
	}
	f := &Fork{}
	cloneSimulator(&f.s, &ck.s)
	return f, nil
}

// Run drives the fork to completion and returns the full-trace Result,
// identical to a cold run of the checkpoint's trace as of the fork. A nil
// ctx means context.Background. A fork is meant to be run once, by Run or
// by RunSummary.
func (f *Fork) Run(ctx context.Context) (*Result, error) {
	if err := f.run(ctx); err != nil {
		return nil, err
	}
	return f.s.result()
}

// Summary is the part of a run's Result a what-if scores: the per-arrival
// waits and the aggregates that do not need the job records.
type Summary struct {
	// Waits[i] is the wait of the job with arrival index i, bit for bit
	// Result.Jobs[i].Wait.
	Waits       []float64
	Utilization float64
	Makespan    float64
	Violations  int
	Backfilled  int
	Interrupted int
	FaultFailed int
}

// RunSummary drives the fork to completion like Run, but returns only the
// Summary of the Result Run would return. It skips what Run copies: the
// jobs. Waits is the fork's own waits slice, handed over without a copy.
func (f *Fork) RunSummary(ctx context.Context) (*Summary, error) {
	if err := f.run(ctx); err != nil {
		return nil, err
	}
	s := &f.s
	sum := &Summary{
		Waits:      s.rows.pages[0].waits,
		Makespan:   s.makespan,
		Violations: s.violations,
		Backfilled: s.backfilled,
	}
	if s.makespan > 0 {
		sum.Utilization = s.cl.Utilization(s.makespan)
	}
	if s.flt != nil {
		sum.Interrupted = s.flt.interrupts
		sum.FaultFailed = s.flt.failed
	}
	return sum, nil
}

// run is the one run path of Run and RunSummary: the event loop to
// completion under ctx, then the every-arrival-started check.
func (f *Fork) run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	f.s.ctx = ctx
	f.s.done = ctx.Done()
	return f.s.run()
}

// Summary returns the Summary of r: what Fork.RunSummary returns for the
// run whose Result Fork.Run returns.
func (r *Result) Summary() *Summary {
	waits := make([]float64, len(r.Jobs))
	for i := range r.Jobs {
		waits[i] = r.Jobs[i].Wait
	}
	return &Summary{
		Waits:       waits,
		Utilization: r.Utilization,
		Makespan:    r.Makespan,
		Violations:  r.Violations,
		Backfilled:  r.Backfilled,
		Interrupted: r.Interrupted,
		FaultFailed: r.FaultFailed,
	}
}

// cloneSimulator copies a paused materialized simulator into dst so the two
// can run independently. Authoritative state — the in-flight arena and its
// free list, queues, completion heap, cluster, fair-share accounts, the
// per-arrival waits and promises, every counter, and the fault layer's
// per-job state — is deep-copied; the jobs are shared read-only; the
// compiled fault schedule and config are immutable and shared; pure caches
// (score sort, profile, shadow, backfill-scan memo, conservative plan) are
// dropped instead, which the cache invariants already prove changes no
// scheduling decision, only re-derivation work. The event tap is not
// copied: forks are headless.
// dst must be fresh (zero) storage; its context is set by the caller.
func cloneSimulator(dst, src *simulator) {
	dst.opt = src.opt
	dst.jobs = src.jobs // read-only; Extend appends only beyond this header's len
	dst.cl = src.cl.Clone()
	dst.now = src.now
	dst.next = src.next
	dst.met = src.met

	// Queues and running records address the arena by slot, so it and its
	// free list copy verbatim: the fork's cost is what is in flight, plus
	// the log's waits and promises.
	dst.slots = slices.Clone(src.slots)
	dst.freeSlots = slices.Clone(src.freeSlots)
	dst.compl.items = slices.Clone(src.compl.items)
	rows := &src.rows.pages[0]
	dst.rows.single(rowPage{jobs: rows.jobs, waits: slices.Clone(rows.waits), promised: slices.Clone(rows.promised)})
	dst.touched = make([]bool, len(src.parts))

	dst.parts = make([]partState, len(src.parts))
	for p := range src.parts {
		sp, dp := &src.parts[p], &dst.parts[p]
		// Queue: the live region's slots and mirrors copy verbatim.
		stamps, procs := sp.q.liveMirrors()
		dp.q.buf = slices.Clone(sp.q.live())
		dp.q.stamps = slices.Clone(stamps)
		dp.q.procs = slices.Clone(procs)
		dp.avail.ends = append([]float64(nil), sp.avail.ends[sp.avail.head:]...)
		dp.avail.procs = append([]int(nil), sp.avail.procs[sp.avail.head:]...)
		dp.avail.head = 0
		dp.avail.ver = sp.avail.ver
		// fitBound is authoritative (a sound lower bound the original run
		// would carry forward identically); the caches restart cold.
		dp.fitBound = sp.fitBound
		dp.plan.reset()
		// Bump past every stamp copied with the arena so no stale backfill
		// memo survives into the fork.
		dp.scanGen = sp.scanGen + 1
	}

	if src.fair != nil {
		dst.fair = src.fair.Clone()
	}
	dst.fairVer = src.fairVer

	dst.queued = src.queued
	dst.violations = src.violations
	dst.violationDelay = src.violationDelay
	dst.backfilled = src.backfilled
	dst.maxQueueSeen = src.maxQueueSeen
	dst.started = src.started
	dst.makespan = src.makespan

	if src.flt != nil {
		src.flt.cloneInto(&dst.fltState)
		dst.flt = &dst.fltState
	}
}
