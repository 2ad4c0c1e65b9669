package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
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

// ckSameResult asserts two results — two Results or two Summaries — are
// identical: every field, slices element by element, so a field added
// later is compared too.
func ckSameResult(t *testing.T, tag string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < w.NumField(); i++ {
		name, gf, wf := w.Type().Field(i).Name, g.Field(i), w.Field(i)
		if wf.Kind() != reflect.Slice {
			if !gf.Equal(wf) {
				t.Fatalf("%s: %s = %v, want %v", tag, name, gf, wf)
			}
			continue
		}
		if gf.Len() != wf.Len() {
			t.Fatalf("%s: %s has %d entries, want %d", tag, name, gf.Len(), wf.Len())
		}
		for k := 0; k < wf.Len(); k++ {
			if !gf.Index(k).Equal(wf.Index(k)) {
				t.Fatalf("%s: %s[%d] = %+v, want %+v", tag, name, k, gf.Index(k), wf.Index(k))
			}
		}
	}
}

// ckSummaryMatches runs a fresh fork of ck through RunSummary and asserts
// its summary is want's: waits bit for bit Result.Jobs[i].Wait, the
// aggregates equal.
func ckSummaryMatches(t *testing.T, tag string, ck *Checkpoint, want *Result) {
	t.Helper()
	f, err := ck.Fork()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	got, err := f.RunSummary(nil)
	if err != nil {
		t.Fatalf("%s: summary: %v", tag, err)
	}
	ckSameResult(t, tag+" summary", got, want.Summary())
}

// TestCheckpointForkMatchesColdRun: pausing at a spread of points — before,
// inside, and after the arrival window — then forking must reproduce the
// cold run exactly for every policy/backfill shape, through Run and
// through RunSummary.
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
				ckSummaryMatches(t, fmt.Sprintf("%s pause %v", opt.Policy, frac), ck, want)
			}
		})
	}
}

// TestForkCopiesOnlyInFlight pins what a fork copies: a fork of a
// checkpoint paused deep into a 4k-job log holds no more live arena slots
// than jobs queued plus running — the arena is sized by what is in flight,
// not by the log — its queues equal the source's element for element
// (slots and scan mirrors), with nothing re-anchored. The fork must still
// finish like a cold run.
func TestForkCopiesOnlyInFlight(t *testing.T) {
	tr := randomTrace(17, 4000, 64)
	for i := range tr.Jobs {
		tr.Jobs[i].Submit *= 1.6 // loaded, not saturated: the queue stays bounded
	}
	span := tr.Jobs[len(tr.Jobs)-1].Submit
	for name, opt := range map[string]Options{
		"FCFS+EASY":          {Policy: FCFS, Backfill: EASY},
		"WFP3+Relaxed":       {Policy: WFP3, Backfill: Relaxed},
		"SJF+EASY/ckptFault": {Policy: SJF, Backfill: EASY, Faults: ckFaultScenarios(span)["interrupt-checkpoint"]},
	} {
		t.Run(name, func(t *testing.T) {
			want, err := Run(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := RunToCheckpoint(tr, opt, tr.Jobs[3500].Submit)
			if err != nil {
				t.Fatal(err)
			}
			f, err := ck.Fork()
			if err != nil {
				t.Fatal(err)
			}
			src, dst := &ck.s, &f.s
			inFlight := dst.queued + dst.compl.len()
			if live := len(dst.slots) - len(dst.freeSlots); live > inFlight {
				t.Errorf("fork holds %d live slots for %d jobs in flight", live, inFlight)
			}
			if len(dst.slots) >= len(tr.Jobs)/4 {
				t.Errorf("arena of %d slots for a %d-job log: sized by the log, not by what is in flight", len(dst.slots), len(tr.Jobs))
			}
			if inFlight == 0 {
				t.Fatal("nothing in flight at the pause: the pin checks nothing")
			}
			for p := range src.parts {
				sq, dq := &src.parts[p].q, &dst.parts[p].q
				ss, sp := sq.liveMirrors()
				ds, dp := dq.liveMirrors()
				if !slices.Equal(sq.live(), dq.live()) || !slices.Equal(ss, ds) || !slices.Equal(sp, dp) {
					t.Errorf("partition %d: fork queue %v differs from source %v", p, dq.live(), sq.live())
				}
			}
			got, err := f.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			ckSameResult(t, name, got, want)
		})
	}
}

// TestForkRunsWhileCheckpointAdvances: forks share the checkpoint's jobs
// read-only, and a checkpoint advanced to the end must not disturb what
// they hold. Three forks are taken early; the checkpoint then advances
// through the rest of the log while one fork runs concurrently (the race
// detector's pin) and the others wait until it is done (the pin without
// it). Run and RunSummary must still match the cold run.
func TestForkRunsWhileCheckpointAdvances(t *testing.T) {
	tr := randomTrace(5, 6000, 64)
	opt := Options{Policy: FCFS, Backfill: EASY}
	want, err := Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := RunToCheckpoint(tr, opt, tr.Jobs[500].Submit)
	if err != nil {
		t.Fatal(err)
	}
	var forks [3]*Fork
	for i := range forks {
		if forks[i], err = ck.Fork(); err != nil {
			t.Fatal(err)
		}
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome)
	go func() {
		res, err := forks[0].Run(nil)
		done <- outcome{res, err}
	}()
	if err := ck.AdvanceTo(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	concurrent := <-done
	if concurrent.err != nil {
		t.Fatal(concurrent.err)
	}
	ckSameResult(t, "concurrent fork", concurrent.res, want)
	later, err := forks[1].Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "fork run after the advance", later, want)
	sum, err := forks[2].RunSummary(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "summary fork", sum, want.Summary())
}

// TestCheckpointForkWithAvailHead: without walltimes the planned end is the
// actual end, so completions retire the front of each partition's AvailSet
// and leave dead space before its head. Forks taken while head > 0 (the
// clone copies only the live span) and the checkpoint itself, extended and
// advanced past further completions, must still match cold runs.
func TestCheckpointForkWithAvailHead(t *testing.T) {
	tr := ckTrace(t)
	for i := range tr.Jobs {
		tr.Jobs[i].Walltime = 0
	}
	n := len(tr.Jobs)
	opt := Options{Policy: FCFS, Backfill: EASY}
	cold := func(k int) *Result {
		t.Helper()
		res, err := Run(&trace.Trace{System: tr.System, Jobs: tr.Jobs[:k]}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	half := &trace.Trace{System: tr.System, Jobs: tr.Jobs[:n/2]}
	ck, err := RunToCheckpoint(half, opt, tr.Jobs[n/4].Submit)
	if err != nil {
		t.Fatal(err)
	}
	sawHead := false
	for step, pause := range []float64{tr.Jobs[n/4].Submit, tr.Jobs[n/3].Submit, tr.Jobs[n/2-1].Submit} {
		if err := ck.AdvanceTo(pause); err != nil {
			t.Fatal(err)
		}
		for p := range ck.s.parts {
			sawHead = sawHead || ck.s.parts[p].avail.head > 0
		}
		got, err := ck.WhatIf(nil)
		if err != nil {
			t.Fatal(err)
		}
		ckSameResult(t, fmt.Sprintf("step %d", step), got, cold(n/2))
	}
	if !sawHead {
		t.Fatal("no partition's AvailSet had dead space before its head at a fork")
	}
	if err := ck.Extend(tr.Jobs[n/2:]); err != nil {
		t.Fatal(err)
	}
	got, err := ck.WhatIf(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "extended", got, cold(n))
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
	pause := tr.Jobs[len(tr.Jobs)-1].Submit + 1
	ck, err := RunToCheckpoint(tr, opt, pause)
	if err != nil {
		t.Fatal(err)
	}
	late := trace.Job{ID: 999, Submit: 0, Wait: -1, Run: 10, Procs: 1, VC: 0, Status: trace.Passed}
	if err := ck.Extend([]trace.Job{late}); err == nil {
		t.Fatal("extend accepted an arrival before the pause time")
	}
	huge := trace.Job{ID: 1000, Submit: pause + 1, Wait: -1, Run: 10, Procs: 1 << 20, VC: 0, Status: trace.Passed}
	if err := ck.Extend([]trace.Job{huge}); err == nil {
		t.Fatal("extend accepted a job larger than its partition")
	}
	if ck.Len() != len(tr.Jobs) {
		t.Fatalf("failed extend mutated the log: %d jobs, want %d", ck.Len(), len(tr.Jobs))
	}
}

// ckFaultScenarios mirrors the fault differential sweep's scenarios,
// scaled to ckFaultTrace: scripted and generated outages (default and
// pinned horizon), per-attempt interrupts under each recovery mode,
// scripted kills — some on jobs only later extensions add — and a mix.
func ckFaultScenarios(span float64) map[string]*fault.Config {
	return map[string]*fault.Config{
		"outage-scripted": {
			Outages: []fault.Outage{
				{Part: 0, Start: 0.2 * span, Duration: 3600, Cores: 12},
				{Part: 2, Start: 0.7 * span, Duration: 5000, Cores: 16},
			},
			Recovery: fault.RecoveryRequeue, RetryCap: 3,
		},
		"outage-generated": {
			Seed: 42, MTBF: 4000, MTTR: 1200, OutageFrac: 0.5,
			Recovery: fault.RecoveryRequeue, RetryCap: 4,
		},
		"outage-pinned-horizon": {
			Seed: 3, MTBF: 5000, MTTR: 1500, OutageFrac: 0.4, Horizon: 1.2 * span,
			Recovery: fault.RecoveryRequeue, RetryCap: 2,
		},
		"interrupt-none": {
			Seed: 7, InterruptProb: 0.05, Recovery: fault.RecoveryNone,
		},
		"interrupt-requeue": {
			Seed: 7, InterruptProb: 0.1, Recovery: fault.RecoveryRequeue, RetryCap: 2,
		},
		"interrupt-checkpoint": {
			Seed: 7, InterruptProb: 0.1, Recovery: fault.RecoveryCheckpoint,
			RetryCap: 2, CheckpointInterval: 600,
		},
		"kills-scripted": {
			Kills:    []fault.JobKill{{Job: 0, After: 30}, {Job: 45, After: 120}, {Job: 130, After: 1}},
			Recovery: fault.RecoveryRequeue, RetryCap: 1,
		},
		"mixed": {
			Seed: 13, MTBF: 5000, MTTR: 900, OutageFrac: 0.4, InterruptProb: 0.04,
			Recovery: fault.RecoveryCheckpoint, RetryCap: 3, CheckpointInterval: 450,
		},
	}
}

// ckFaultTrace is ckTrace in four batches of 40 jobs, each batch shifted
// 20000 s after the previous one: a pause in a gap lies past the trace's
// last submit so far — the generated outages' default horizon — by enough
// that the recompiled schedule changes before the pause.
func ckFaultTrace(t *testing.T) (*trace.Trace, [][]trace.Job) {
	tr := ckTrace(t)
	const per, gap = 40, 20000.0
	var batches [][]trace.Job
	for k := 0; k*per < len(tr.Jobs); k++ {
		b := tr.Jobs[k*per : min((k+1)*per, len(tr.Jobs))]
		for i := range b {
			b[i].Submit += float64(k) * gap
		}
		batches = append(batches, b)
	}
	return tr, batches
}

// TestCheckpointFaultForkMatchesColdRun: fault-injected checkpoints fork
// float-for-float like fault-free ones. For every scenario and a spread of
// policy x backfill shapes, checkpoints paused before and past the horizon,
// fed the trace batch by batch with Extend/AdvanceTo, must fork results
// equal to a cold sim.Run of the trace they hold — also forks taken before
// a later Extend — both when the pause is the query clock (at or before
// the last submit: the recompiled schedule is spliced in, never rebuilt)
// and when it lies past the last submit (the schedule may change before
// the pause, and the checkpoint is rebuilt).
func TestCheckpointFaultForkMatchesColdRun(t *testing.T) {
	tr, batches := ckFaultTrace(t)
	span := tr.Jobs[len(tr.Jobs)-1].Submit
	combos := []Options{
		{Policy: FCFS, Backfill: EASY},
		{Policy: SJF, Backfill: Conservative},
		{Policy: WFP3, Backfill: Relaxed, RelaxFactor: 0.15},
		{Policy: Fair, Backfill: AdaptiveRelaxed, RelaxFactor: 0.15, FairshareHalfLife: 3600},
		{Policy: FCFS, Backfill: NoBackfill},
	}
	rebuilds := 0
	for name, cfg := range ckFaultScenarios(span) {
		for _, opt := range combos {
			opt.Faults = cfg
			tag := fmt.Sprintf("%s/%s+%s", name, opt.Policy, opt.Backfill)
			want, err := Run(tr, opt)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if name != "kills-scripted" && want.Interrupted == 0 {
				t.Fatalf("%s: no attempt interrupted; the scenario is vacuous", tag)
			}
			for _, frac := range []float64{0, 0.3, 0.6, 0.95, 1, 1.5} {
				ck, err := RunToCheckpoint(tr, opt, frac*span)
				if err != nil {
					t.Fatalf("%s pause %v: %v", tag, frac, err)
				}
				got, err := ck.WhatIf(nil)
				if err != nil {
					t.Fatalf("%s pause %v: %v", tag, frac, err)
				}
				ckSameResult(t, fmt.Sprintf("%s pause %v", tag, frac), got, want)
				ckSummaryMatches(t, fmt.Sprintf("%s pause %v", tag, frac), ck, want)
			}
			if n := ckFaultStaged(t, tag+" query-clock", tr, batches, opt, false); n != 0 {
				t.Fatalf("%s: %d rebuilds with the pause at or before the last submit", tag, n)
			}
			rebuilds += ckFaultStaged(t, tag+" past-horizon", tr, batches, opt, true)
		}
	}
	if rebuilds == 0 {
		t.Fatal("no Extend rebuilt its checkpoint; the rebuild path is untested")
	}
}

// ckFaultStaged feeds tr's batches to one checkpoint, pausing inside each
// batch (pastHorizon false) or in the gap after it, forking and checking
// against cold runs of the trace so far after every step, and returns how
// many Extends rebuilt the checkpoint.
func ckFaultStaged(t *testing.T, tag string, tr *trace.Trace, batches [][]trace.Job, opt Options, pastHorizon bool) int {
	t.Helper()
	pauseFor := func(k int) float64 {
		b := batches[k]
		if pastHorizon && k+1 < len(batches) {
			return (b[len(b)-1].Submit + batches[k+1][0].Submit) / 2
		}
		return (b[0].Submit + b[len(b)-1].Submit) / 2
	}
	cold := func(n int) *Result {
		t.Helper()
		res, err := Run(&trace.Trace{System: tr.System, Jobs: tr.Jobs[:n]}, opt)
		if err != nil {
			t.Fatalf("%s: cold run of %d jobs: %v", tag, n, err)
		}
		return res
	}
	n := len(batches[0])
	ck, err := RunToCheckpoint(&trace.Trace{System: tr.System, Jobs: tr.Jobs[:n]}, opt, pauseFor(0))
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	for k := 1; k < len(batches); k++ {
		early, err := ck.Fork()
		if err != nil {
			t.Fatalf("%s batch %d: fork: %v", tag, k, err)
		}
		if err := ck.Extend(batches[k]); err != nil {
			t.Fatalf("%s batch %d: extend: %v", tag, k, err)
		}
		got, err := ck.WhatIf(nil)
		if err != nil {
			t.Fatalf("%s batch %d: %v", tag, k, err)
		}
		ckSameResult(t, fmt.Sprintf("%s batch %d extended", tag, k), got, cold(n+len(batches[k])))
		// A fork taken before the Extend still answers for its snapshot.
		if got, err = early.Run(nil); err != nil {
			t.Fatalf("%s batch %d: early fork: %v", tag, k, err)
		}
		ckSameResult(t, fmt.Sprintf("%s batch %d early fork", tag, k), got, cold(n))
		n += len(batches[k])
		if err := ck.AdvanceTo(pauseFor(k)); err != nil {
			t.Fatalf("%s batch %d: advance: %v", tag, k, err)
		}
		if got, err = ck.WhatIf(nil); err != nil {
			t.Fatalf("%s batch %d: %v", tag, k, err)
		}
		ckSameResult(t, fmt.Sprintf("%s batch %d advanced", tag, k), got, cold(n))
	}
	return ck.rebuilds
}

// TestCheckpointTapRefusesFaultRebuild: a tapped checkpoint whose fault
// schedule would change before its pause refuses the Extend and stays
// usable, instead of revising events its tap already saw.
func TestCheckpointTapRefusesFaultRebuild(t *testing.T) {
	tr, batches := ckFaultTrace(t)
	opt := Options{Policy: FCFS, Backfill: EASY, Observer: &obs.Recorder{},
		Faults: &fault.Config{Seed: 42, MTBF: 2000, MTTR: 1200, OutageFrac: 0.5, Recovery: fault.RecoveryRequeue, RetryCap: 2}}
	head := &trace.Trace{System: tr.System, Jobs: batches[0]}
	ck, err := RunToCheckpoint(head, opt, batches[1][0].Submit)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Extend(batches[1]); err == nil {
		t.Fatal("a tapped checkpoint accepted an Extend that changes its fault history")
	}
	if ck.Len() != len(batches[0]) {
		t.Fatalf("refused extend mutated the log: %d jobs, want %d", ck.Len(), len(batches[0]))
	}
	opt.Observer = nil
	want, err := Run(head, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.WhatIf(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "after refusal", got, want)
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

// ckFuzzBytes hands out fuzz input one byte at a time, then zeros.
type ckFuzzBytes []byte

func (b *ckFuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzCheckpointFaults is the differential pin on fault-injected
// checkpoints. Bytes pick a cluster shape, options and a fault spec —
// generated outages (default or pinned horizon), scripted outages and
// kills, per-attempt interrupts, any recovery mode — then a script of
// Extend, AdvanceTo (often past the last submit, where the next Extend
// changes the generated schedule before the pause and forces a rebuild)
// and forks; every fork — through Run and through RunSummary — must equal
// a cold sim.Run of the checkpoint's trace, or fail exactly when the cold
// run does.
func FuzzCheckpointFaults(f *testing.F) {
	// Seeds: a header (shape, options, fault spec), then script ops — 0
	// extends by a batch, 1 advances (past is an advance beyond the last
	// submit), 2 forks.
	job := []byte{1, 20, 30, 0, 3, 0, 1} // +20 s, 211 s run, 4 cores, any partition, walltime
	batch := func(n int) []byte { return append([]byte{byte(n - 1)}, bytes.Repeat(job, n)...) }
	past := []byte{1, 10, 10, 0, 50}
	extend, fork := []byte{0}, []byte{2}
	// Generated outages, requeue: every extend after a past-horizon advance.
	f.Add(slices.Concat([]byte{1, 6, 0, 1, 10, 1, 5, 10, 10, 1, 1, 2}, batch(4),
		past, fork, extend, batch(4), fork, past, fork, extend, batch(3), fork, past, extend, batch(2), fork))
	// Generated and scripted outages plus interrupts, checkpoint recovery.
	f.Add(slices.Concat([]byte{2, 10, 3, 2, 20, 19, 9, 6, 8, 2, 30, 1, 40, 10, 3, 2, 2, 7}, batch(5),
		past, extend, batch(5), fork, past, fork, extend, batch(4), fork, past, extend, batch(3), fork))
	// Pinned horizon and a scripted kill.
	f.Add(slices.Concat([]byte{0, 6, 1, 3, 5, 13, 4, 12, 6, 3, 90, 2, 5, 1, 3}, batch(6),
		fork, past, extend, batch(6), fork, past, extend, batch(3), fork))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := ckFuzzBytes(data)
		parts := 1 + in.next()%3
		perPart := 2 + in.next()%14
		sys := trace.System{Name: "ckfuzz", Kind: trace.HPC, TotalCores: parts * perPart, VirtualClusters: parts}
		opt := Options{
			Policy:      Policies[in.next()%len(Policies)],
			Backfill:    Backfills[in.next()%len(Backfills)],
			RelaxFactor: float64(in.next()%50) / 100,
		}
		mode := in.next()
		cfg := &fault.Config{Seed: uint64(in.next())}
		if mode&1 != 0 || mode&31 == 0 {
			cfg.MTBF = float64(100 + 20*in.next())
			cfg.MTTR = float64(10 + 4*in.next())
			cfg.OutageFrac = float64(1+in.next()%4) / 4
			if mode&8 != 0 {
				cfg.Horizon = float64(200 + 40*in.next())
			}
		}
		if mode&2 != 0 {
			cfg.InterruptProb = float64(in.next()%40) / 100
		}
		if mode&4 != 0 {
			cfg.Kills = []fault.JobKill{{Job: in.next() % 40, After: float64(1 + in.next())}}
		}
		if mode&16 != 0 {
			cfg.Outages = []fault.Outage{{Part: in.next() % parts, Start: float64(10 * in.next()),
				Duration: float64(1 + 10*in.next()), Cores: 1 + in.next()%perPart}}
		}
		cfg.Recovery = fault.Recovery(in.next() % 3)
		cfg.RetryCap = in.next() % 4
		if cfg.Recovery == fault.RecoveryCheckpoint {
			cfg.CheckpointInterval = float64(5 + in.next())
		}
		opt.Faults = cfg

		var log []trace.Job
		pause, last := 0.0, 0.0
		batch := func() []trace.Job {
			jobs := make([]trace.Job, 1+in.next()%8)
			for i := range jobs {
				last = max(last, pause) + float64(in.next()%4*in.next())
				run := float64(1 + 7*in.next())
				jobs[i] = trace.Job{
					ID: len(log) + i, User: in.next() % 5, Submit: last, Wait: -1,
					Run: run, Procs: 1 + in.next()%perPart, VC: in.next()%(parts+1) - 1,
					Status: trace.Passed,
				}
				if w := in.next(); w%3 > 0 {
					jobs[i].Walltime = run * (0.5 + float64(w)/255)
				}
			}
			log = append(log, jobs...)
			return jobs
		}
		check := func(step int, ck *Checkpoint) {
			t.Helper()
			got, gotErr := ck.WhatIf(nil)
			want, wantErr := Run(&trace.Trace{System: sys, Jobs: log}, opt)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d: fork error %v, cold run error %v", step, gotErr, wantErr)
			}
			if wantErr == nil {
				ckSameResult(t, fmt.Sprintf("step %d", step), got, want)
				ckSummaryMatches(t, fmt.Sprintf("step %d", step), ck, want)
			}
		}

		first := batch()
		ck, err := RunToCheckpoint(&trace.Trace{System: sys, Jobs: first}, opt, 0)
		if err != nil {
			return // spec invalid for this shape (e.g. a scripted outage too large)
		}
		for step := 0; step < 12 && len(in) > 0; step++ {
			switch in.next() % 3 {
			case 0:
				if err := ck.Extend(batch()); err != nil {
					t.Fatalf("step %d: extend: %v", step, err)
				}
			case 1:
				to := pause + float64(in.next()*in.next()%2000)
				if in.next()%2 == 0 {
					to = max(to, last+float64(1+in.next()*8)) // past the last submit
				}
				if err := ck.AdvanceTo(to); err != nil {
					t.Fatalf("step %d: advance: %v", step, err)
				}
				pause = max(pause, to)
			default:
				check(step, ck)
			}
		}
		check(-1, ck)
	})
}
