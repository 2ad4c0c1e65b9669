package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/stats"
	"crosssched/internal/trace"
	"crosssched/internal/twin"
)

// The traced run's layer timers live here, in the benchmark: each wraps a
// call into a layer's public API. Nothing inside the program is
// instrumented. Each traced pass is paired with the same pass untimed;
// bench.trace_overhead_pct is the difference over all pairs.

// timedStream times a trace.Stream's Next calls.
type timedStream struct {
	src  trace.Stream
	busy time.Duration
}

func (t *timedStream) System() trace.System { return t.src.System() }

func (t *timedStream) Next() (trace.Job, error) {
	t0 := time.Now()
	j, err := t.src.Next()
	t.busy += time.Since(t0)
	return j, err
}

func (r *run) addPair(plain, traced time.Duration) {
	r.plainDur += plain
	r.tracedDur += traced
}

func (r *run) overheadPct() float64 {
	if r.plainDur <= 0 {
		return 0
	}
	return 100 * float64(r.tracedDur-r.plainDur) / float64(r.plainDur)
}

// layerReps is how many plain/traced pairs each in-process pass runs; the
// fastest of each side is kept.
const layerReps = 2

// traceLayers splits the first trace's generation into synth.next_s and
// trace.write_self_s, and its streamed replay into trace.parse_s (time in
// SWFStream.Next), stats.fold_s (the sink, folding waits like schedsim)
// and sim.self_s (the rest of RunStream), with the simulator's counters.
func (r *run) traceLayers(in *traceInputs) error {
	seed, file := in.seeds[0], in.files[0]
	// The output goes to a discarding writer, as tracegen's goes to a
	// file: hashing it is the correctness pass's work, not the program's.
	write := func(s trace.Stream) (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		n, err := trace.WriteSWFStream(io.Discard, s)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		r.ops.ok()
		if n != in.jobs[0] {
			r.ops.mismatch(fmt.Errorf("in-process generation wrote %d jobs, tracegen %d", n, in.jobs[0]))
		}
		return d, nil
	}
	bestPlain, bestTraced := time.Duration(1<<62), time.Duration(1<<62)
	var next time.Duration
	for rep := 0; rep < layerReps; rep++ {
		src, err := r.genStream(seed)
		if err != nil {
			return err
		}
		plain, err := write(src)
		if err != nil {
			return err
		}
		if src, err = r.genStream(seed); err != nil {
			return err
		}
		ts := &timedStream{src: src}
		traced, err := write(ts)
		if err != nil {
			return err
		}
		bestPlain = min(bestPlain, plain)
		if traced < bestTraced {
			bestTraced, next = traced, ts.busy
		}
	}
	r.addPair(bestPlain, bestTraced)
	r.set("synth.next_s", "s", next.Seconds())
	r.set("trace.write_self_s", "s", (bestTraced - next).Seconds())

	ref, err := materializedAggregates(file)
	if err != nil {
		return err
	}
	var plainBest, best *replayOut
	for rep := 0; rep < layerReps; rep++ {
		for _, traced := range []bool{false, true} {
			runtime.GC()
			out, err := replay(file, traced)
			if err != nil {
				return err
			}
			r.ops.ok()
			if out.agg != ref {
				r.ops.mismatch(fmt.Errorf("in-process streamed replay differs from a materialized sim.Run:\n%s\nwant\n%s", out.agg, ref))
			}
			switch {
			case !traced && (plainBest == nil || out.wall < plainBest.wall):
				plainBest = out
			case traced && (best == nil || out.wall < best.wall):
				best = out
			}
		}
	}
	r.addPair(plainBest.wall, best.wall)
	r.set("trace.parse_s", "s", best.parse.Seconds())
	r.set("stats.fold_s", "s", best.fold.Seconds())
	r.set("sim.self_s", "s", (best.wall - best.parse - best.fold).Seconds())
	r.set("sim.heap_peak_mb", "MB", best.heapPeakMB)
	m := best.met
	r.set("sim.events", "count", float64(m.Events))
	r.set("sim.schedule_passes", "count", float64(m.SchedulePasses))
	r.set("sim.score_sorts", "count", float64(m.ScoreSorts))
	r.set("sim.score_cache_hits", "count", float64(m.ScoreCacheHits))
	r.set("sim.backfilled", "count", float64(m.Backfilled))
	r.set("sim.jobs_retired", "count", float64(m.JobsRetired))
	r.set("sim.max_window_jobs", "count", float64(m.MaxWindowJobs))
	fmt.Fprintf(os.Stderr, "perfbench: traced replay %.3fs = parse %.3fs + sim %.3fs + fold %.3fs; untraced %.3fs\n",
		best.wall.Seconds(), best.parse.Seconds(), (best.wall - best.parse - best.fold).Seconds(), best.fold.Seconds(),
		plainBest.wall.Seconds())
	return nil
}

// replayOut is one in-process streamed replay.
type replayOut struct {
	wall, parse, fold time.Duration
	heapPeakMB        float64
	met               obs.Metrics
	agg               string
}

// replay streams the file through sim.RunStream under schedsim's default
// options, folding waits into a stats.StreamSummary as schedsim does.
func replay(path string, traced bool) (*replayOut, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := &replayOut{}
	var hs *heapSampler
	if traced {
		hs = startHeapSampler()
	}
	t0 := time.Now()
	swf, err := trace.NewSWFStream(f)
	if err != nil {
		return nil, err
	}
	waits := stats.NewStreamSummary()
	var src trace.Stream = swf
	sink := func(row sim.StreamRow) error {
		waits.Add(row.Job.Wait)
		return nil
	}
	var ts *timedStream
	if traced {
		out.parse = time.Since(t0)
		ts = &timedStream{src: swf}
		src = ts
		sink = func(row sim.StreamRow) error {
			t := time.Now()
			waits.Add(row.Job.Wait)
			out.fold += time.Since(t)
			return nil
		}
	}
	res, err := sim.RunStream(src, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, RelaxFactor: 0.10, Metrics: &out.met}, sink)
	out.wall = time.Since(t0)
	if hs != nil {
		out.heapPeakMB = hs.finish()
		out.parse += ts.busy
	}
	if err != nil {
		return nil, err
	}
	out.agg = formatAggregates(int(out.met.JobsRetired), res)
	return out, nil
}

// heapSampler tracks the peak of the heap's object bytes while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// planned is one session of the traced twin passes.
type planned struct {
	sc    *script
	class int
	id    string // pre-populated session to resume; "" creates
}

// twinPlan is the traced passes' fixed session list: every created class
// once and, on durable workloads, one resume per resumed class of a
// session that starts parked (beyond the server's session cap).
func (r *run) twinPlan(in *twinInputs) []planned {
	var plan []planned
	for c, sc := range in.set.created {
		plan = append(plan, planned{sc: sc, class: c})
		if c < len(in.set.resumed) {
			p := r.w.Cap + c
			rc := p % len(in.set.resumed)
			plan = append(plan, planned{sc: in.set.resumed[rc], class: rc, id: populatedID(p)})
		}
	}
	return plan
}

// manager builds the in-process twin as the workload's server runs it:
// durable on a fresh copy of the pre-populated directory, or in memory.
// It returns how long NewManager took (recovery included).
func (r *run) manager(in *twinInputs, durable bool, name string) (*twin.Manager, time.Duration, error) {
	var cfg twin.Config
	if durable {
		cfg.MaxSessions = r.w.Cap
		policy, every, err := twin.ParseFsync("interval")
		if err != nil {
			return nil, 0, err
		}
		cfg.StateDir, cfg.Fsync, cfg.FsyncEvery = filepath.Join(r.work, name), policy, every
		if in.populated != "" {
			if err := copyTree(in.populated, cfg.StateDir); err != nil {
				return nil, 0, err
			}
		}
	}
	t0 := time.Now()
	m := twin.NewManager(cfg)
	return m, time.Since(t0), nil
}

// runPlan drives the plan in process. On a manager without the
// pre-populated sessions (in memory) each resumed session's history is
// first rebuilt untimed.
func runPlan(m *twin.Manager, tm *twinTimers, plan []planned, rebuild bool) (time.Duration, error) {
	ids := make([]string, len(plan))
	for i, p := range plan {
		ids[i] = p.id
		if p.id != "" && rebuild {
			ip := &inproc{m: m}
			id, err := ip.session("", p.sc, []step{createStep(p.sc.cfg)}, nil)
			if err == nil {
				_, err = ip.session(id, p.sc, p.sc.history, nil)
			}
			if err != nil {
				return 0, err
			}
			ids[i] = id
		}
	}
	ip := &inproc{m: m, tm: tm}
	t0 := time.Now()
	for i, p := range plan {
		if _, err := ip.session(ids[i], p.sc, p.sc.steps, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// twinLayers runs the plan in process (untimed and timed, in the
// workload's durability mode and the other one), replays what the twin
// does inside each call with the simulator's public API, and drives the
// same plan over HTTP on one connection.
func (r *run) twinLayers(in *twinInputs) error {
	plan := r.twinPlan(in)
	durable := r.w.Durable

	var tm *twinTimers
	var counters obs.Metrics
	bestPlain, bestTraced := time.Duration(1<<62), time.Duration(1<<62)
	var recoverS []float64
	for rep := 0; rep < layerReps; rep++ {
		for _, traced := range []bool{false, true} {
			m, setup, err := r.manager(in, durable, fmt.Sprintf("layers-%d-%t", rep, traced))
			if err != nil {
				return err
			}
			recoverS = append(recoverS, setup.Seconds())
			var t *twinTimers
			if traced {
				t = &twinTimers{}
			}
			runtime.GC()
			wall, err := runPlan(m, t, plan, in.populated == "")
			if err == nil && traced && (tm == nil || wall < bestTraced) {
				tm, counters = t, m.Metrics()
			}
			m.Close()
			if err != nil {
				return err
			}
			r.ops.ok()
			if traced {
				bestTraced = min(bestTraced, wall)
			} else {
				bestPlain = min(bestPlain, wall)
			}
		}
	}
	r.addPair(bestPlain, bestTraced)
	for _, op := range []opKind{opCreate, opSubmit, opAdvance, opWhatIf} {
		r.set("twin."+opNames[op]+"_ms.p50", "ms", tm.call[op].pct(0.50))
		r.set("twin."+opNames[op]+"_ms.p99", "ms", tm.call[op].pct(0.99))
	}
	r.set("twin.get_ms.p50", "ms", tm.get.pct(0.50))
	r.set("twin.get_ms.p99", "ms", tm.get.pct(0.99))
	r.set("twin.recover_s", "s", stats.Median(recoverS))
	r.set("twin.parked", "count", float64(counters.TwinParked))
	r.set("twin.reactivated", "count", float64(counters.TwinReactivated))
	r.set("twin.recovered", "count", float64(counters.TwinRecovered))

	// The other durability mode, for the journal's share of Submit and
	// AdvanceBy.
	other := &twinTimers{}
	m, _, err := r.manager(&twinInputs{}, !durable, "layers-other")
	if err != nil {
		return err
	}
	_, err = runPlan(m, other, plan, true)
	m.Close()
	if err != nil {
		return err
	}
	r.ops.ok()
	mem, disk := other, tm
	if !durable {
		mem, disk = tm, other
	}
	r.set("twin.journal_delta_ms.p50", "ms", disk.journaled.pct(0.5)-mem.journaled.pct(0.5))

	st := &simTimers{}
	for _, p := range plan {
		if err := shadow(p.sc, st); err != nil {
			return err
		}
		r.ops.ok()
	}
	for _, l := range []struct {
		name string
		s    *samples
	}{{"replay", &st.replay}, {"catchup", &st.catchup}, {"fork", &st.fork}, {"cold", &st.cold}} {
		r.set("sim."+l.name+"_ms.p50", "ms", l.s.pct(0.50))
		r.set("sim."+l.name+"_ms.p99", "ms", l.s.pct(0.99))
	}

	return r.httpOverhead(in, plan, tm)
}

// httpOverhead drives the plan over HTTP on one connection against a
// fresh server and reports, per operation, the HTTP median minus the
// in-process median.
func (r *run) httpOverhead(in *twinInputs, plan []planned, tm *twinTimers) error {
	dir, err := r.stateDir(in, "layers-http")
	if err != nil {
		return err
	}
	srv, _, err := r.launch(dir)
	if err != nil {
		return err
	}
	c := newClient(srv.base, 1)
	d := &driver{c: c, ops: &r.ops}
	for _, p := range plan {
		sr := &sessionRun{sc: p.sc, class: p.class, use: -1, id: p.id}
		if p.id != "" {
			sr.use = 0
		}
		for {
			more, err := d.send(sr, time.Now())
			if !more || err != nil {
				break
			}
		}
	}
	c.close()
	if err := srv.stop(); err != nil {
		r.ops.fail(err)
	}
	d.verify(in.refs)
	for _, op := range []opKind{opCreate, opSubmit, opAdvance, opWhatIf} {
		r.set("http.overhead_ms."+opNames[op]+".p50", "ms", d.byOp[op].pct(0.5)-tm.op[op].pct(0.5))
	}
	return nil
}

// simTimers hold the simulator calls the twin makes inside its calls.
type simTimers struct {
	replay, catchup, fork, cold samples
}

// shadow replays one session's script through the simulator's public API
// the way the twin does: a baseline sim.Run after each submit, and per
// what-if candidate either a warm checkpoint (RunToCheckpoint the first
// time, then Extend + AdvanceTo to the clock) forked with WhatIf, or a
// cold sim.Run for fault scenarios. A resumed session's history is
// applied untimed first.
func shadow(sc *script, st *simTimers) error {
	cfg, err := sc.cfg.sessionConfig()
	if err != nil {
		return err
	}
	tr := &trace.Trace{System: trace.System{Name: "shadow", Kind: trace.HPC, TotalCores: cfg.Cores, VirtualClusters: cfg.Partitions}}
	base := sim.Options{Policy: cfg.Policy, Backfill: cfg.Backfill}
	warm := map[string]*sim.Checkpoint{}
	var now float64
	apply := func(steps []step, timed bool) error {
		for _, s := range steps {
			switch s.op {
			case opSubmit:
				tr.Jobs = appendClamped(tr.Jobs, s.jobs, now)
				if !timed {
					continue
				}
				opt := base
				opt.Observer = &obs.Recorder{}
				t0 := time.Now()
				if _, err := sim.Run(tr, opt); err != nil {
					return err
				}
				st.replay.addDur(time.Since(t0))
			case opAdvance:
				now += s.by
			case opWhatIf:
				if err := shadowWhatIf(tr, base, cfg, s.whatif.Candidates, now, warm, st); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := apply(sc.history, false); err != nil {
		return err
	}
	return apply(sc.steps, true)
}

func shadowWhatIf(tr *trace.Trace, base sim.Options, cfg twin.SessionConfig, cands []twin.Candidate, now float64,
	warm map[string]*sim.Checkpoint, st *simTimers) error {
	opts := make([]sim.Options, len(cands))
	nCold := 0
	for i, c := range cands {
		opt := base
		var err error
		if c.Policy != "" {
			if opt.Policy, err = twin.ParsePolicy(c.Policy); err != nil {
				return err
			}
		}
		if c.Backfill != "" {
			if opt.Backfill, err = twin.ParseBackfill(c.Backfill); err != nil {
				return err
			}
		}
		if c.Faults != "" {
			fc, err := fault.ParseSpec(c.Faults)
			if err != nil {
				return err
			}
			if fc.Seed == 0 {
				fc.Seed = cfg.Seed
			}
			opt.Faults = fc
			nCold++
		}
		opts[i] = opt
	}
	for _, opt := range opts {
		if opt.Faults.Enabled() {
			if shards := runtime.GOMAXPROCS(0) / max(nCold, 1); shards > 1 {
				opt.Shards = shards
			}
			t0 := time.Now()
			if _, err := sim.Run(tr, opt); err != nil {
				return err
			}
			st.cold.addDur(time.Since(t0))
			continue
		}
		key := fmt.Sprintf("%s|%s|%g", opt.Policy, opt.Backfill, opt.RelaxFactor)
		t0 := time.Now()
		ck := warm[key]
		if ck == nil {
			var err error
			if ck, err = sim.RunToCheckpoint(tr, opt, now); err != nil {
				return err
			}
			warm[key] = ck
		} else {
			if err := ck.Extend(tr.Jobs[ck.Len():]); err != nil {
				return err
			}
			if err := ck.AdvanceTo(now); err != nil {
				return err
			}
		}
		t1 := time.Now()
		st.catchup.addDur(t1.Sub(t0))
		if _, err := ck.WhatIf(context.Background()); err != nil {
			return err
		}
		st.fork.addDur(time.Since(t1))
	}
	return nil
}

// appendClamped appends specs to the log as Session.Submit does: submit
// times clamped monotone to max(requested, clock, previous submission).
func appendClamped(jobs []trace.Job, specs []twin.JobSpec, now float64) []trace.Job {
	floor := now
	if n := len(jobs); n > 0 && jobs[n-1].Submit > floor {
		floor = jobs[n-1].Submit
	}
	for _, sp := range specs {
		vc := -1
		if sp.VC != nil {
			vc = *sp.VC
		}
		floor = max(floor, sp.Submit)
		jobs = append(jobs, trace.Job{ID: len(jobs), User: sp.User, Submit: floor, Wait: -1, Run: sp.Run,
			Walltime: sp.Walltime, Procs: sp.Procs, VC: vc, Status: trace.Passed})
	}
	return jobs
}
