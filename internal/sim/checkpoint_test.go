package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// ckTrace builds a small deterministic multi-partition workload that
// exercises queue buildup, backfilling, and promises across 3 partitions.
func ckTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{System: trace.System{
		Name: "ck", Kind: trace.HPC, TotalCores: 48, VirtualClusters: 3,
	}}
	// A pseudo-random but fixed job mix: bursts at coarse ticks so several
	// event times collide across partitions.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	submit := 0.0
	for i := 0; i < 160; i++ {
		submit += float64(next(240))
		procs := 1 << next(4)
		run := float64(60 + next(5000))
		wall := run * (1 + float64(next(9))/10)
		if next(4) == 0 {
			wall = 0 // no estimate: planner falls back to runtime
		}
		tr.Jobs = append(tr.Jobs, trace.Job{
			ID: i, User: int(next(7)), Submit: submit, Wait: -1,
			Run: run, Walltime: wall, Procs: procs, VC: int(next(4)) - 1,
			Status: trace.Passed,
		})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameResult asserts exact equality of two results, every field the
// simulator promises deterministic.
func ckSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d jobs vs %d", tag, len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Fatalf("%s: job %d = %+v, want %+v", tag, i, got.Jobs[i], want.Jobs[i])
		}
		if got.PromisedStart[i] != want.PromisedStart[i] {
			t.Fatalf("%s: promise %d = %v, want %v", tag, i, got.PromisedStart[i], want.PromisedStart[i])
		}
	}
	if got.AvgWait != want.AvgWait || got.AvgBsld != want.AvgBsld ||
		got.Utilization != want.Utilization || got.Makespan != want.Makespan ||
		got.Violations != want.Violations || got.ViolationDelay != want.ViolationDelay ||
		got.Backfilled != want.Backfilled || got.MaxQueueLen != want.MaxQueueLen {
		t.Fatalf("%s: aggregates %+v, want %+v", tag, got, want)
	}
	if len(got.QueueTimeline) != len(want.QueueTimeline) {
		t.Fatalf("%s: timeline %d vs %d", tag, len(got.QueueTimeline), len(want.QueueTimeline))
	}
	for i := range want.QueueTimeline {
		if got.QueueTimeline[i] != want.QueueTimeline[i] {
			t.Fatalf("%s: timeline[%d] %+v vs %+v", tag, i, got.QueueTimeline[i], want.QueueTimeline[i])
		}
	}
}

// TestCheckpointForkMatchesColdRun: pausing at a spread of points — before,
// inside, and after the arrival window — then forking must reproduce the
// cold run exactly for every policy/backfill shape.
func TestCheckpointForkMatchesColdRun(t *testing.T) {
	tr := ckTrace(t)
	span := tr.Jobs[len(tr.Jobs)-1].Submit
	opts := []Options{
		{Policy: FCFS, Backfill: EASY},
		{Policy: SJF, Backfill: Relaxed, RelaxFactor: 0.2},
		{Policy: WFP3, Backfill: Conservative},
		{Policy: Fair, Backfill: EASY, FairshareHalfLife: 3600},
		{Policy: F2, Backfill: AdaptiveRelaxed, RelaxFactor: 0.15},
		{Policy: FCFS, Backfill: NoBackfill},
	}
	for _, opt := range opts {
		opt := opt
		t.Run(opt.Policy.String()+"+"+opt.Backfill.String(), func(t *testing.T) {
			t.Parallel()
			want, err := Run(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0, 0.25, 0.5, 0.9, 1.5} {
				ck, err := RunToCheckpoint(tr, opt, frac*span)
				if err != nil {
					t.Fatalf("pause %v: %v", frac, err)
				}
				got, err := ck.WhatIf(nil)
				if err != nil {
					t.Fatalf("pause %v: %v", frac, err)
				}
				ckSameResult(t, opt.Policy.String(), got, want)
			}
		})
	}
}

// TestCheckpointAdvanceAndExtend: feeding the trace in slices — extend,
// advance, extend — must land on the same result as one cold run of the
// full trace, and forks must not disturb the checkpoint they fork from.
func TestCheckpointAdvanceAndExtend(t *testing.T) {
	tr := ckTrace(t)
	opt := Options{Policy: SJF, Backfill: EASY}
	want, err := Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Jobs)
	cut1, cut2 := n/3, 2*n/3
	head := &trace.Trace{System: tr.System, Jobs: tr.Jobs[:cut1]}
	ck, err := RunToCheckpoint(head, opt, tr.Jobs[cut1-1].Submit/2)
	if err != nil {
		t.Fatal(err)
	}
	// Fork mid-way; its result covers only the jobs known so far.
	if _, err := ck.WhatIf(nil); err != nil {
		t.Fatal(err)
	}
	if err := ck.Extend(tr.Jobs[cut1:cut2]); err != nil {
		t.Fatal(err)
	}
	if err := ck.AdvanceTo(tr.Jobs[cut2-1].Submit); err != nil {
		t.Fatal(err)
	}
	// A second advance to an earlier time must be a no-op, not an error.
	if err := ck.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	if err := ck.Extend(tr.Jobs[cut2:]); err != nil {
		t.Fatal(err)
	}
	got, err := ck.WhatIf(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "staged", got, want)
	// The checkpoint is still usable after forks: fork again, same answer.
	got2, err := ck.WhatIf(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "refork", got2, want)
}

// TestCheckpointExtendRejectsPast: arrivals before the pause time or out of
// submit order must be rejected (they cannot be revised into history).
func TestCheckpointExtendRejectsPast(t *testing.T) {
	tr := ckTrace(t)
	opt := Options{Policy: FCFS, Backfill: EASY}
	ck, err := RunToCheckpoint(tr, opt, tr.Jobs[len(tr.Jobs)-1].Submit+1)
	if err != nil {
		t.Fatal(err)
	}
	late := trace.Job{ID: 999, Submit: 0, Wait: -1, Run: 10, Procs: 1, VC: 0, Status: trace.Passed}
	if err := ck.Extend([]trace.Job{late}); err == nil {
		t.Fatal("extend accepted an arrival before the pause time")
	}
	huge := trace.Job{ID: 1000, Submit: ck.PausedAt() + 1, Wait: -1, Run: 10, Procs: 1 << 20, VC: 0, Status: trace.Passed}
	if err := ck.Extend([]trace.Job{huge}); err == nil {
		t.Fatal("extend accepted a job larger than its partition")
	}
	if ck.Len() != len(tr.Jobs) {
		t.Fatalf("failed extend mutated the log: %d jobs, want %d", ck.Len(), len(tr.Jobs))
	}
}

// TestCheckpointRejectsFaults: fault injection cannot be checkpointed.
func TestCheckpointRejectsFaults(t *testing.T) {
	tr := ckTrace(t)
	opt := Options{Policy: FCFS, Backfill: EASY}
	opt.Faults = &fault.Config{MTBF: 20000, MTTR: 4000, OutageFrac: 0.2, Seed: 1}
	if _, err := RunToCheckpoint(tr, opt, 100); err == nil {
		t.Fatal("checkpoint accepted fault injection")
	}
}

// TestCheckpointTapMatchesRecorder pins the checkpoint's event tap. For
// every policy x backfill on 1-4 partitions, a checkpoint is fed its log
// in random Extend/AdvanceTo interleavings with forks in between; the
// events its tap saw must equal, in order, the events strictly before the
// final pause of a cold recorded run of the final log, and no fork may
// emit to the tap.
func TestCheckpointTapMatchesRecorder(t *testing.T) {
	for parts := 1; parts <= 4; parts++ {
		for _, pol := range Policies {
			for _, bf := range Backfills {
				parts, opt := parts, Options{Policy: pol, Backfill: bf}
				t.Run(fmt.Sprintf("%dp/%s+%s", parts, pol, bf), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewPCG(uint64(parts), uint64(pol)<<8|uint64(bf)))
					tapCheckpointRun(t, rng, parts, opt)
				})
			}
		}
	}
}

// tapCheckpointRun drives one randomized tapped checkpoint (see
// TestCheckpointTapMatchesRecorder).
func tapCheckpointRun(t *testing.T, rng *rand.Rand, parts int, opt Options) {
	const perPart = 16
	sys := trace.System{Name: "tap", Kind: trace.HPC, TotalCores: perPart * parts, VirtualClusters: parts}
	var log []trace.Job
	pause, last := 0.0, 0.0
	batch := func() []trace.Job {
		n := 1 + rng.IntN(20)
		jobs := make([]trace.Job, n)
		for i := range jobs {
			if rng.IntN(3) > 0 { // ties on the pause and between arrivals
				last = max(last, pause) + float64(rng.IntN(400))
			}
			run := float64(30 + rng.IntN(3000))
			wall := 0.0
			if rng.IntN(4) > 0 {
				wall = run * (0.7 + rng.Float64()) // some jobs hit the limit
			}
			jobs[i] = trace.Job{
				ID: len(log) + i, User: rng.IntN(7), Submit: max(last, pause), Wait: -1,
				Run: run, Walltime: wall, Procs: 1 + rng.IntN(perPart), VC: rng.IntN(parts+1) - 1,
				Status: trace.Passed,
			}
		}
		log = append(log, jobs...)
		return jobs
	}

	tap := &obs.Recorder{}
	tapped := opt
	tapped.Observer = tap
	ck, err := RunToCheckpoint(&trace.Trace{System: sys, Jobs: batch()}, tapped, 0)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 16; step++ {
		switch rng.IntN(3) {
		case 0:
			if err := ck.Extend(batch()); err != nil {
				t.Fatalf("step %d: extend: %v", step, err)
			}
		case 1:
			to := pause + float64(rng.IntN(3000))
			if rng.IntN(5) == 0 {
				to = pause / 2 // not forward: a no-op
			}
			if err := ck.AdvanceTo(to); err != nil {
				t.Fatalf("step %d: advance: %v", step, err)
			}
			pause = max(pause, to)
		default:
			before := len(tap.Events)
			if _, err := ck.WhatIf(nil); err != nil {
				t.Fatalf("step %d: fork: %v", step, err)
			}
			if len(tap.Events) != before {
				t.Fatalf("step %d: a fork emitted %d events to the tap", step, len(tap.Events)-before)
			}
		}
	}

	cold := &obs.Recorder{}
	ref := opt
	ref.Observer = cold
	tr := &trace.Trace{System: sys, Jobs: log}
	want, err := Run(tr, ref)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []obs.Event
	for _, e := range cold.Events {
		if e.Time < pause {
			prefix = append(prefix, e)
		}
	}
	if len(tap.Events) != len(prefix) {
		t.Fatalf("tap saw %d events, cold prefix before %v has %d", len(tap.Events), pause, len(prefix))
	}
	for i := range prefix {
		if tap.Events[i] != prefix[i] {
			t.Fatalf("event %d: tap %+v, cold %+v", i, tap.Events[i], prefix[i])
		}
	}
	got, err := ck.WhatIf(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "final fork", got, want)
}
