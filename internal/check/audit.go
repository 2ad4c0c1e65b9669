package check

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// Finding is one invariant violation discovered by the auditor.
type Finding struct {
	// Invariant is a short stable identifier, e.g. "conservation".
	Invariant string
	// Detail explains where and by how much the invariant broke.
	Detail string
}

func (f Finding) String() string { return f.Invariant + ": " + f.Detail }

// AuditReport collects every finding from one audit pass.
type AuditReport struct {
	Findings []Finding
	// JobsChecked and EventsChecked size the evidence behind a clean pass.
	JobsChecked   int
	EventsChecked int
}

// OK reports whether every invariant held.
func (r *AuditReport) OK() bool { return len(r.Findings) == 0 }

// Err returns nil when the audit passed, else an error naming the first
// findings (up to five).
func (r *AuditReport) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, 0, 5)
	for i, f := range r.Findings {
		if i == 5 {
			msgs = append(msgs, fmt.Sprintf("... and %d more", len(r.Findings)-5))
			break
		}
		msgs = append(msgs, f.String())
	}
	return fmt.Errorf("check: audit failed (%d findings): %s", len(r.Findings), strings.Join(msgs, "; "))
}

func (r *AuditReport) addf(invariant, format string, args ...interface{}) {
	r.Findings = append(r.Findings, Finding{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// floatEq compares metrics recomputed in a different summation order than
// the simulator's, so it allows a tiny relative slack.
func floatEq(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale+1e-9
}

// Audit verifies the hard invariants of a simulation result against its
// input trace, without re-running any scheduler:
//
//   - causality: every job started, never before its submission;
//   - walltime: no job occupies resources past its requested walltime;
//   - conservation: at every start/end event, the cores in use in each
//     partition never exceed that partition's capacity;
//   - promises: the reported violation count/delay match a recomputation
//     from PromisedStart, and under FCFS with trustworthy estimates no job
//     slips past its promise by more than the backfill kind's allowance;
//   - metrics: AvgWait, AvgBsld, Utilization, Makespan, and MaxQueueLen are
//     recomputable from the output schedule to within float tolerance;
//     MaxQueueLen exactly, with start instants taken from the run's
//     recorded decision stream (events).
//
// opt must be the Options the result was produced with (the promise
// allowance and bsld threshold depend on them).
//
// Audit reconstructs the schedule as one start per job at Submit+Wait with
// occupancy Run — which is only true on fault-free runs. For runs with
// opt.Faults enabled (interrupts, requeues, drained capacity), audit the
// recorded decision stream with AuditStream instead, as Verify does.
func Audit(tr *trace.Trace, opt sim.Options, events []obs.Event, res *sim.Result) *AuditReport {
	r := &AuditReport{}
	if len(res.Jobs) != len(tr.Jobs) {
		r.addf("shape", "result has %d jobs, trace has %d", len(res.Jobs), len(tr.Jobs))
		return r
	}
	if len(res.PromisedStart) != len(tr.Jobs) {
		r.addf("shape", "PromisedStart has %d entries, want %d", len(res.PromisedStart), len(tr.Jobs))
		return r
	}
	if opt.BsldTau <= 0 {
		opt.BsldTau = 10 // sim.Run's default
	}
	if opt.RelaxFactor == 0 && (opt.Backfill == sim.Relaxed || opt.Backfill == sim.AdaptiveRelaxed) {
		opt.RelaxFactor = 0.10
	}
	r.JobsChecked = len(tr.Jobs)

	caps := PartitionCapacities(tr.System)
	starts := make([]float64, len(res.Jobs))
	effRuns := make([]float64, len(res.Jobs))
	predicted := make([]float64, len(res.Jobs)) // planning estimate per job
	estimatesSound := true                      // every effective run <= its estimate

	for i := range res.Jobs {
		in, out := &tr.Jobs[i], &res.Jobs[i]
		if out.Submit != in.Submit || out.Procs != in.Procs || out.Run != in.Run {
			r.addf("shape", "job %d: output trace altered immutable fields", in.ID)
			continue
		}
		if out.Wait < 0 {
			r.addf("causality", "job %d never started (wait %v)", in.ID, out.Wait)
			continue
		}
		starts[i] = out.Submit + out.Wait
		// Jobs are killed at their walltime limit; beyond it they must not
		// hold resources.
		effRuns[i] = in.Run
		if in.Walltime > 0 && effRuns[i] > in.Walltime {
			effRuns[i] = in.Walltime
		}
		predicted[i] = in.Walltime
		if predicted[i] <= 0 || opt.UseActualRuntime {
			predicted[i] = in.Run
		}
		if opt.WalltimePredictor != nil {
			if pred := opt.WalltimePredictor(*in); pred > 0 {
				predicted[i] = pred
			}
		}
		if effRuns[i] > predicted[i]+1e-9 {
			estimatesSound = false
		}
		p := Partition(*in, len(caps))
		if in.Procs > caps[p] {
			r.addf("capacity", "job %d requests %d cores, partition %d holds %d",
				in.ID, in.Procs, p, caps[p])
		}
	}
	if !r.OK() {
		return r // schedule is structurally broken; later checks would cascade
	}

	r.EventsChecked = auditConservation(r, tr, caps, starts, effRuns)
	auditPromises(r, tr, opt, res, starts, estimatesSound)
	auditMetrics(r, tr, opt, res, starts, effRuns)
	if maxQ := recomputeMaxQueue(tr, eventStarts(tr, events, starts)); maxQ != res.MaxQueueLen {
		r.addf("metrics", "reported max queue %d, recomputed %d", res.MaxQueueLen, maxQ)
	}
	return r
}

// timeEps groups reconstructed event times: starts are rebuilt as
// Submit+Wait while the simulator computed Wait as now-Submit, so two events
// that happened at the same instant can differ by a few ulps after the
// round trip. Genuine event gaps in any workload are far above this.
const timeEps = 1e-7

// auditConservation sweeps every start/end event per partition and checks
// the in-use core count against capacity. Events within timeEps of each
// other count as simultaneous, and releases apply before starts within a
// group, matching the simulator's completions-first event order. Returns
// the number of events swept.
func auditConservation(r *AuditReport, tr *trace.Trace, caps []int, starts, effRuns []float64) int {
	type event struct {
		time  float64
		delta int // +procs at start, -procs at end
		jobID int
	}
	byPart := make([][]event, len(caps))
	for i := range tr.Jobs {
		p := Partition(tr.Jobs[i], len(caps))
		byPart[p] = append(byPart[p],
			event{time: starts[i], delta: tr.Jobs[i].Procs, jobID: tr.Jobs[i].ID},
			event{time: starts[i] + effRuns[i], delta: -tr.Jobs[i].Procs, jobID: tr.Jobs[i].ID})
	}
	events := 0
	for p, evs := range byPart {
		sort.Slice(evs, func(a, b int) bool { return evs[a].time < evs[b].time })
		inUse := 0
		for lo := 0; lo < len(evs); {
			hi := lo
			for hi < len(evs) && evs[hi].time <= evs[lo].time+timeEps {
				hi++
			}
			for k := lo; k < hi; k++ {
				if evs[k].delta < 0 {
					inUse += evs[k].delta
					events++
				}
			}
			for k := lo; k < hi; k++ {
				if evs[k].delta > 0 {
					inUse += evs[k].delta
					events++
					if inUse > caps[p] {
						r.addf("conservation", "partition %d holds %d/%d cores at t=%.3f (job %d)",
							p, inUse, caps[p], evs[k].time, evs[k].jobID)
						return events
					}
				}
			}
			lo = hi
		}
		if inUse != 0 {
			r.addf("conservation", "partition %d ends the sweep with %d cores leaked", p, inUse)
		}
	}
	return events
}

// auditPromises recomputes the violation metrics from PromisedStart and,
// when the run is head-stable (FCFS, no learned score, no predictor, and no
// job outliving its estimate), bounds every job's slip past its promise by
// the backfill kind's allowance.
func auditPromises(r *AuditReport, tr *trace.Trace, opt sim.Options, res *sim.Result, starts []float64, estimatesSound bool) {
	violations := 0
	delay := 0.0
	for i, promised := range res.PromisedStart {
		if promised < 0 {
			continue
		}
		if opt.Backfill == sim.NoBackfill {
			r.addf("promise", "job %d has a promise but backfilling is off", tr.Jobs[i].ID)
		}
		if starts[i] > promised+1e-9 {
			violations++
			delay += starts[i] - promised
		}
	}
	if violations != res.Violations {
		r.addf("promise", "reported %d violations, recomputed %d", res.Violations, violations)
	}
	if !floatEq(delay, res.ViolationDelay) {
		r.addf("promise", "reported violation delay %v, recomputed %v", res.ViolationDelay, delay)
	}

	// Slip bound: only FCFS keeps the blocked head at the head of the queue
	// (any other policy can legally leapfrog a promised job), and only sound
	// estimates keep reservations from receding.
	headStable := opt.Policy == sim.FCFS && opt.CustomScore == nil &&
		opt.WalltimePredictor == nil && estimatesSound
	if !headStable {
		return
	}
	for i, promised := range res.PromisedStart {
		if promised < 0 {
			continue
		}
		allowance := 0.0 // EASY and Conservative promise exact starts
		if opt.Backfill == sim.Relaxed || opt.Backfill == sim.AdaptiveRelaxed {
			expectedWait := promised - tr.Jobs[i].Submit
			if expectedWait < 0 {
				expectedWait = 0
			}
			// The adaptive factor is at most the fixed factor (Eq. 1).
			allowance = opt.RelaxFactor * expectedWait
		}
		if slip := starts[i] - promised; slip > allowance+1e-6 {
			r.addf("allowance", "job %d slipped %.3fs past its promise (allowance %.3fs, backfill %s)",
				tr.Jobs[i].ID, slip, allowance, opt.Backfill)
		}
	}
}

// auditMetrics recomputes every aggregate metric from the output schedule.
func auditMetrics(r *AuditReport, tr *trace.Trace, opt sim.Options, res *sim.Result, starts, effRuns []float64) {
	n := len(tr.Jobs)
	if n == 0 {
		return
	}
	var sumWait, sumBsld, busy, makespan float64
	for i := range res.Jobs {
		sumWait += res.Jobs[i].Wait
		sumBsld += res.Jobs[i].BoundedSlowdown(opt.BsldTau)
		busy += effRuns[i] * float64(tr.Jobs[i].Procs)
		if end := starts[i] + effRuns[i]; end > makespan {
			makespan = end
		}
	}
	if !floatEq(res.Makespan, makespan) {
		r.addf("metrics", "reported makespan %v, recomputed %v", res.Makespan, makespan)
	}
	if !floatEq(res.AvgWait, sumWait/float64(n)) {
		r.addf("metrics", "reported avg wait %v, recomputed %v", res.AvgWait, sumWait/float64(n))
	}
	if !floatEq(res.AvgBsld, sumBsld/float64(n)) {
		r.addf("metrics", "reported avg bsld %v, recomputed %v", res.AvgBsld, sumBsld/float64(n))
	}
	if makespan > 0 {
		util := busy / (float64(tr.System.TotalCores) * makespan)
		if !floatEq(res.Utilization, util) {
			r.addf("metrics", "reported utilization %v, recomputed %v", res.Utilization, util)
		}
	}
	if res.Backfilled < 0 || res.Backfilled > n {
		r.addf("metrics", "backfilled count %d outside [0, %d]", res.Backfilled, n)
	}
}

// eventStarts returns each job's start instant from the decision stream,
// exact where Submit+Wait can sit an ulp off it — which decides whether an
// arrival an ulp later finds the job still queued. A job whose stream start
// is missing or further than timeEps from the result's keeps the latter.
func eventStarts(tr *trace.Trace, events []obs.Event, starts []float64) []float64 {
	byID := make(map[int]int, len(tr.Jobs))
	for i := range tr.Jobs {
		byID[tr.Jobs[i].ID] = i
	}
	exact := append([]float64(nil), starts...)
	for _, e := range events {
		if i, ok := byID[e.Job]; ok && e.Kind == obs.JobStart && math.Abs(e.Time-starts[i]) <= timeEps {
			exact[i] = e.Time
		}
	}
	return exact
}

// recomputeMaxQueue reproduces the simulator's max-queue sample: at every
// event time t, after that instant's arrivals and before its starts, the
// queue holds the jobs with submit <= t that had not started strictly
// before t. Starts only shrink the queue, so the maximum falls on an
// arrival instant, and only those need sampling.
func recomputeMaxQueue(tr *trace.Trace, starts []float64) int {
	submits := make([]float64, len(tr.Jobs))
	for i := range tr.Jobs {
		submits[i] = tr.Jobs[i].Submit
	}
	sort.Float64s(submits)
	sorted := append([]float64(nil), starts...)
	sort.Float64s(sorted)
	maxQ := 0
	for _, t := range submits {
		arrived := sort.Search(len(submits), func(i int) bool { return submits[i] > t })
		begun := sort.SearchFloat64s(sorted, t)
		if q := arrived - begun; q > maxQ {
			maxQ = q
		}
	}
	return maxQ
}
