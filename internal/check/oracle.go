// Package check independently verifies the optimized scheduling simulator
// in internal/sim. It provides three layers:
//
//   - a reference oracle (Oracle): a deliberately naive O(n²) reimplementation
//     of the scheduling semantics whose correctness is meant to be obvious by
//     inspection — flat slices, a full queue re-sort on every pass, resource
//     availability recomputed from scratch by scanning the running set, no
//     heaps and no incremental profiles;
//   - an auditor (Audit): takes any simulator run's decision stream and
//     Result and checks hard invariants exactly (resource conservation,
//     causality, walltime kills, promise bounds, recomputed metrics)
//     without re-running the scheduler;
//   - a differential harness (Verify): audits the optimized simulator's
//     output, asserts its schedule matches the oracle's exactly, and runs
//     every other engine path (streamed, checkpoint-forked) through one exact
//     comparison against it.
//
// The oracle shares only the priority *formulas* with internal/sim (via
// sim.Policy.Score and sim.FairshareState) so that scores are bit-identical;
// every scheduling decision — event sequencing, queue ordering, reservations,
// backfilling, conservative planning — is reimplemented here from the spec.
package check

import (
	"fmt"
	"math"
	"sort"

	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// ojob is the oracle's view of one job: the immutable request plus the
// schedule the oracle assigns to it.
type ojob struct {
	idx     int // index into the trace (== dense job ID order)
	user    int
	submit  float64
	procs   int
	part    int     // partition the job is confined to
	reqTime float64 // planning estimate: walltime, prediction, or runtime
	run     float64 // effective runtime (capped at walltime)

	queued   bool
	started  bool
	start    float64 // start of the current (latest) attempt
	endAt    float64 // when the current attempt ends (completion or interrupt)
	wait     float64 // first-attempt queue wait (what the Result reports)
	promised float64 // first promised start; <0 when never reserved
}

// plannedEnd is the reservation-planning completion (start + estimate),
// distinct from the real completion (start + run).
func (j *ojob) plannedEnd() float64 { return j.start + j.reqTime }

// oracle is the run state: everything is a flat slice scanned in full.
type oracle struct {
	opt  sim.Options
	jobs []ojob
	caps []int // capacity per partition
	free []int // free cores per partition

	queue   [][]int // per-partition waiting-job indices, arrival order
	running [][]int // per-partition running-job indices

	now          float64
	maxQueueSeen int

	// flt is non-nil only when fault injection is enabled; see oracle_fault.go.
	flt *ofault

	fair *sim.FairshareState

	violations     int
	violationDelay float64
	backfilled     int
	started        int
	makespan       float64

	// utilization integral, mirrored from cluster.Cluster.advance
	lastTime        float64
	busyCoreSeconds float64
}

// Oracle schedules tr under opt with the naive reference implementation and
// returns the same Result shape as sim.Run.
// For any deterministic option set, sim.Run and Oracle must agree exactly on
// every job's start time; Verify asserts this.
func Oracle(tr *trace.Trace, opt sim.Options) (*sim.Result, error) {
	opt = opt.WithDefaults() // as sim.Run does, so both sides plan with identical numbers
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	caps := PartitionCapacities(tr.System)
	o := &oracle{
		opt:     opt,
		caps:    caps,
		free:    append([]int(nil), caps...),
		queue:   make([][]int, len(caps)),
		running: make([][]int, len(caps)),
	}
	if opt.Policy == sim.Fair {
		o.fair = sim.NewFairshareState(opt.FairshareHalfLife)
	}
	o.jobs = make([]ojob, len(tr.Jobs))
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		part := Partition(*j, len(caps))
		if j.Procs > caps[part] {
			return nil, fmt.Errorf("check: job %d needs %d cores but partition %d has %d",
				j.ID, j.Procs, part, caps[part])
		}
		reqTime := j.Walltime
		if reqTime <= 0 || opt.UseActualRuntime {
			reqTime = j.Run
		}
		run := j.Run
		if j.Walltime > 0 && run > j.Walltime {
			run = j.Walltime // killed at the walltime limit
		}
		if opt.WalltimePredictor != nil {
			if pred := opt.WalltimePredictor(*j); pred > 0 {
				reqTime = pred // advisory; the job is not killed at pred
			}
		}
		o.jobs[i] = ojob{
			idx: i, user: j.User, submit: j.Submit, procs: j.Procs,
			part: part, reqTime: reqTime, run: run, promised: -1,
		}
	}
	if opt.Faults.Enabled() {
		if err := o.setupFaults(tr, opt.Faults); err != nil {
			return nil, err
		}
	}
	if err := o.run(); err != nil {
		return nil, err
	}
	return o.result(tr), nil
}

// run is the event loop: advance to the next arrival, completion, or
// capacity-fault event, release finished jobs, apply due capacity faults,
// enqueue arrivals, then schedule each affected partition in index order —
// the same intra-instant phase order as the optimized simulator.
func (o *oracle) run() error {
	next := 0
	for next < len(o.jobs) || o.anyRunning() ||
		(o.flt != nil && o.flt.next < len(o.flt.sched.Events)) {
		t := o.nextEventTime(next)
		o.now = t

		touched := make([]bool, len(o.caps))
		// Completions first: scan every running job, release those whose
		// attempt ends at t — a natural completion, or a drawn interrupt
		// (willInterrupt) routed to the fault path.
		for p := range o.running {
			kept := o.running[p][:0]
			for _, ji := range o.running[p] {
				j := &o.jobs[ji]
				if j.endAt <= t {
					o.advance(t)
					if j.endAt > o.makespan {
						o.makespan = j.endAt
					}
					o.free[p] += j.procs
					if o.free[p] > o.caps[p]-o.downCores(p) {
						return fmt.Errorf("check: oracle released past capacity in partition %d", p)
					}
					touched[p] = true
					if f := o.flt; f != nil {
						if f.willInterrupt[ji] {
							f.willInterrupt[ji] = false
							o.faultInterrupted(ji, j.endAt)
						} else {
							f.goodput += (j.endAt - j.start) * float64(j.procs)
						}
					}
				} else {
					kept = append(kept, ji)
				}
			}
			o.running[p] = kept
		}
		// Capacity faults due at t apply after completions (freed cores
		// reduce the victim count) and before arrivals.
		if o.flt != nil {
			if err := o.applyCapacityFaults(t, touched); err != nil {
				return err
			}
		}
		// Arrivals join the tail of their partition's queue.
		for next < len(o.jobs) && o.jobs[next].submit <= t {
			j := &o.jobs[next]
			j.queued = true
			o.queue[j.part] = append(o.queue[j.part], next)
			touched[j.part] = true
			next++
		}
		if q := o.totalQueued(); q > o.maxQueueSeen {
			o.maxQueueSeen = q
		}
		for p, hit := range touched {
			if hit {
				o.schedule(p)
			}
		}
	}
	if o.started != len(o.jobs) {
		return fmt.Errorf("check: oracle started only %d/%d jobs", o.started, len(o.jobs))
	}
	return nil
}

func (o *oracle) anyRunning() bool {
	for _, r := range o.running {
		if len(r) > 0 {
			return true
		}
	}
	return false
}

// nextEventTime is the earliest of the next arrival, any attempt end, and
// the next capacity-fault event.
func (o *oracle) nextEventTime(next int) float64 {
	t := 0.0
	have := false
	if next < len(o.jobs) {
		t, have = o.jobs[next].submit, true
	}
	for _, rs := range o.running {
		for _, ji := range rs {
			if e := o.jobs[ji].endAt; !have || e < t {
				t, have = e, true
			}
		}
	}
	if o.flt != nil && o.flt.next < len(o.flt.sched.Events) {
		if ft := o.flt.sched.Events[o.flt.next].Time; !have || ft < t {
			t = ft
		}
	}
	return t
}

// downCores is the partition's currently drained core count.
func (o *oracle) downCores(p int) int {
	if o.flt == nil {
		return 0
	}
	return o.flt.down[p]
}

func (o *oracle) totalQueued() int {
	n := 0
	for _, q := range o.queue {
		n += len(q)
	}
	return n
}

// advance integrates busy core-seconds up to now (mirrors cluster.advance).
// Drained cores are neither free nor busy, so they count as lost capacity.
func (o *oracle) advance(now float64) {
	if now > o.lastTime {
		busy := 0
		for p := range o.caps {
			busy += o.caps[p] - o.free[p] - o.downCores(p)
		}
		o.busyCoreSeconds += float64(busy) * (now - o.lastTime)
		o.lastTime = now
	}
}

// score ranks job ji for the queue at time now.
func (o *oracle) score(ji int, now float64) float64 {
	j := &o.jobs[ji]
	switch {
	case o.opt.CustomScore != nil:
		return o.opt.CustomScore(j.reqTime, j.procs, j.submit, now)
	case o.fair != nil:
		return o.fair.Usage(j.user, now)
	default:
		return o.opt.Policy.Score(j.reqTime, j.procs, j.submit, now)
	}
}

// sortQueue orders partition p's queue: score, then submit, then index.
func (o *oracle) sortQueue(p int) {
	now := o.now
	q := o.queue[p]
	scores := make(map[int]float64, len(q))
	for _, ji := range q {
		scores[ji] = o.score(ji, now)
	}
	sort.Slice(q, func(a, b int) bool {
		ja, jb := q[a], q[b]
		if scores[ja] != scores[jb] {
			return scores[ja] < scores[jb]
		}
		if o.jobs[ja].submit != o.jobs[jb].submit {
			return o.jobs[ja].submit < o.jobs[jb].submit
		}
		return ja < jb
	})
}

// start dispatches the job at queue position pos of partition p. Under
// fault injection a job may start several times; the recorded wait, the
// promise-violation accounting, and the unique-start count belong to the
// first attempt only (mirroring the optimized simulator).
func (o *oracle) start(p, pos int) {
	ji := o.queue[p][pos]
	j := &o.jobs[ji]
	o.advance(o.now)
	o.free[p] -= j.procs
	if o.free[p] < 0 {
		panic(fmt.Sprintf("check: oracle overallocated partition %d", p))
	}
	j.queued = false
	first := o.flt == nil || !o.flt.everStarted[ji]
	j.started = true
	j.start = o.now
	if first {
		j.wait = o.now - j.submit
	}
	if first && j.promised >= 0 && o.now > j.promised+1e-9 {
		o.violations++
		o.violationDelay += o.now - j.promised
	}
	if pos > 0 {
		o.backfilled++
	}
	if o.fair != nil {
		o.fair.Charge(j.user, o.now, float64(j.procs)*j.run)
	}
	j.endAt = o.now + j.run
	if f := o.flt; f != nil {
		f.everStarted[ji] = true
		if cut, ok := f.cfg.InterruptCut(ji, f.attempts[ji], j.run); ok {
			j.endAt = o.now + cut
			f.willInterrupt[ji] = true
		}
	}
	o.queue[p] = append(o.queue[p][:pos], o.queue[p][pos+1:]...)
	o.running[p] = append(o.running[p], ji)
	if first {
		o.started++
	}
}

// schedule runs scheduling passes for partition p until nothing changes.
func (o *oracle) schedule(p int) {
	for {
		if len(o.queue[p]) == 0 {
			return
		}
		o.sortQueue(p)
		head := &o.jobs[o.queue[p][0]]
		if head.procs <= o.free[p] {
			o.start(p, 0)
			continue
		}
		if o.opt.Backfill == sim.NoBackfill {
			return // no reservations, no promises
		}
		// Outage-blocked head: while a capacity fault holds the partition
		// below the head's request, no reservation can be planned for it.
		// Degrade to a pure greedy pass — start any queued job that fits the
		// free cores — until capacity returns (mirrors sim.schedule).
		if o.flt != nil && head.procs > o.caps[p]-o.flt.down[p] {
			if !o.backfillOne(p, math.Inf(1), 0) {
				return
			}
			continue
		}
		// Head is blocked: find the earliest window where it fits, given
		// the planned (estimate-based) ends of the running jobs.
		av := o.availability(p)
		shadow, minFree := av.earliest(o.now, head.procs, head.reqTime)
		if head.promised < 0 {
			head.promised = shadow
		}
		if o.opt.Backfill == sim.Conservative {
			o.conservative(p, av)
			return
		}
		extra := minFree - head.procs
		deadline := head.promised + o.allowance(p, head)
		if shadow > deadline {
			deadline = shadow
		}
		if !o.backfillOne(p, deadline, extra) {
			return
		}
	}
}

// allowance is how far the head may slip past its first promise.
func (o *oracle) allowance(p int, head *ojob) float64 {
	expectedWait := head.promised - head.submit
	if expectedWait < 0 {
		expectedWait = 0
	}
	switch o.opt.Backfill {
	case sim.Relaxed:
		return o.opt.RelaxFactor * expectedWait
	case sim.AdaptiveRelaxed:
		maxQ := o.opt.MaxQueueLen
		if maxQ <= 0 {
			maxQ = o.maxQueueSeen
		}
		if maxQ <= 0 {
			maxQ = 1
		}
		frac := float64(len(o.queue[p])) / float64(maxQ)
		if frac > 1 {
			frac = 1
		}
		return o.opt.RelaxFactor * frac * expectedWait
	default: // EASY
		return 0
	}
}

// backfillOne starts the first queued job (after the head) that fits now
// and either finishes by the deadline or fits in the cores the head's
// reservation leaves spare. Reports whether a job started.
func (o *oracle) backfillOne(p int, deadline float64, extra int) bool {
	for pos := 1; pos < len(o.queue[p]); pos++ {
		c := &o.jobs[o.queue[p][pos]]
		if c.procs > o.free[p] {
			continue
		}
		if o.now+c.reqTime <= deadline+1e-9 || c.procs <= extra {
			o.start(p, pos)
			return true
		}
	}
	return false
}

// conservative plans a reservation for every queued job in priority order
// (each reservation constrains the later ones) and then starts, from the
// back of the queue forward, every job whose planned start is now.
func (o *oracle) conservative(p int, av *availability) {
	type plan struct {
		pos   int
		start float64
	}
	// During a capacity fault, queued jobs larger than the effective
	// capacity cannot be planned at all; they are skipped until the outage
	// ends (the head is never skipped: schedule degrades to a greedy pass
	// before planning when the head itself no longer fits).
	effCap := math.MaxInt
	if o.flt != nil {
		effCap = o.caps[p] - o.flt.down[p]
	}
	plans := make([]plan, 0, len(o.queue[p]))
	for pos, ji := range o.queue[p] {
		j := &o.jobs[ji]
		if j.procs > effCap {
			continue
		}
		st, _ := av.earliest(o.now, j.procs, j.reqTime)
		av.reserve(st, j.reqTime, j.procs)
		plans = append(plans, plan{pos, st})
	}
	for i := len(plans) - 1; i >= 0; i-- {
		j := &o.jobs[o.queue[p][plans[i].pos]]
		if plans[i].start <= o.now+1e-9 && j.procs <= o.free[p] {
			o.start(p, plans[i].pos)
		}
	}
}

// result assembles the metrics exactly as sim.Run does.
func (o *oracle) result(tr *trace.Trace) *sim.Result {
	res := &sim.Result{
		Jobs:           append([]trace.Job(nil), tr.Jobs...),
		Violations:     o.violations,
		ViolationDelay: o.violationDelay,
		Backfilled:     o.backfilled,
		MaxQueueLen:    o.maxQueueSeen,
		Makespan:       o.makespan,
		PromisedStart:  make([]float64, len(o.jobs)),
	}
	if f := o.flt; f != nil {
		res.Interrupted = f.interrupts
		res.Requeued = f.requeues
		res.FaultFailed = f.failed
		res.GoodputCoreSeconds = f.goodput
		res.WastedCoreSeconds = f.wasted
		for i := range res.Jobs {
			if f.dead[i] {
				res.Jobs[i].Status = trace.Failed
			}
		}
	}
	var sumWait, sumBsld float64
	for i := range o.jobs {
		res.PromisedStart[i] = o.jobs[i].promised
		res.Jobs[i].Wait = o.jobs[i].wait
		sumWait += res.Jobs[i].Wait
		sumBsld += res.Jobs[i].BoundedSlowdown(o.opt.BsldTau)
	}
	if n := float64(len(o.jobs)); n > 0 {
		res.AvgWait = sumWait / n
		res.AvgBsld = sumBsld / n
	}
	if o.makespan > 0 {
		o.advance(o.makespan)
		total := 0
		for _, c := range o.caps {
			total += c
		}
		res.Utilization = o.busyCoreSeconds / (float64(total) * o.makespan)
	}
	return res
}

// PartitionCapacities returns the per-partition core capacities of a system:
// TotalCores split evenly over VirtualClusters (remainder to the first
// partitions), or one partition holding everything. This is the partition
// contract internal/sim schedules against.
func PartitionCapacities(sys trace.System) []int {
	n := sys.VirtualClusters
	if n < 1 {
		n = 1
	}
	base := sys.TotalCores / n
	rem := sys.TotalCores % n
	caps := make([]int, n)
	for i := range caps {
		caps[i] = base
		if i < rem {
			caps[i]++
		}
	}
	return caps
}

// Partition maps a job to its partition index: its VC when valid, else a
// hash of the user ID (the contract shared with internal/sim).
func Partition(j trace.Job, parts int) int {
	if parts <= 1 {
		return 0
	}
	if j.VC >= 0 && j.VC < parts {
		return j.VC
	}
	return j.User % parts
}
