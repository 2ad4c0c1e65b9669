package check

import (
	"fmt"
	"math"
	"strings"

	"crosssched/internal/fault"
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

// floatEq compares sums recomputed in a different order than the
// simulator's (the busy integral, re-segmented by event times), so it
// allows a tiny relative slack.
func floatEq(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale+1e-9
}

// Audit verifies a finished run — its recorded decision stream and its
// final result — against the input trace and the options it ran under,
// without re-running any scheduler. It is an independent consumer of the
// observability layer: instead of trusting the simulator's aggregate
// counters, it re-derives them from the per-decision events alone.
//
// The stream is expected in emission order (as collected by obs.Recorder
// or re-read from a JSONL trace). Because every event carries the exact
// float values the simulator computed, every check is exact except the
// utilization, whose busy integral is re-segmented by event times:
//
//   - shape: the result keeps each job's trace Submit, Procs and Run;
//   - lifecycle: every job has exactly one submit event and, absent faults,
//     exactly one start and complete event, in that stream order, with
//     causally ordered times and the exact wait the result reports;
//   - conservation: replaying starts (+procs), completions (-procs), and
//     capacity faults (drain/restore) in stream order, each job on its own
//     partition, never exceeds any partition's capacity, never runs a job
//     on drained capacity, and ends with zero cores in use and drained;
//   - promises: reservation events are unique per job, match
//     Result.PromisedStart, and precede the job's start; violation events
//     fire only at the job's first start, and both they and a recount from
//     PromisedStart at every first start reproduce the result's count and
//     summed delay; under FCFS with no custom score, no predictor and no
//     faults, no job slips past its promise by more than the backfill
//     kind's allowance;
//   - backfills: each backfill event directly follows its job's start,
//     comes from queue position >= 1, and the events match the result's
//     count; relaxation events appear only under relaxed kinds, name a
//     promised head, and never relax below the promise;
//   - metrics: MaxQueueLen is the peak of a queue counter (+1 per submit
//     and requeue, -1 per start), Makespan the last completion or
//     interrupt, AvgWait and AvgBsld the arrival-order means of the
//     result's jobs, and Utilization the stream's busy integral over
//     capacity x makespan;
//   - faults (when opt.Faults is enabled): interrupts carry the exact
//     elapsed time of the attempt they end, every requeue immediately
//     follows its interrupt with the exact remaining work (after
//     checkpoint banking), no job is requeued past the retry cap and none
//     fails terminally with retries remaining, terminally failed jobs are
//     marked trace.Failed in the result, the fault counters match, the
//     goodput/wasted split replayed in stream order reproduces the
//     result's core-second totals bit-exactly, and goodput + wasted
//     equals the stream's busy integral (to float tolerance).
//
// opt must be the Options the result was produced with (the promise
// allowance and the bsld threshold depend on them).
func Audit(tr *trace.Trace, opt sim.Options, events []obs.Event, res *sim.Result) *AuditReport {
	r := &AuditReport{}
	if len(res.Jobs) != len(tr.Jobs) || len(res.PromisedStart) != len(tr.Jobs) {
		r.addf("shape", "result covers %d jobs (%d promises), trace has %d",
			len(res.Jobs), len(res.PromisedStart), len(tr.Jobs))
		return r
	}
	for i := range tr.Jobs {
		in, out := &tr.Jobs[i], &res.Jobs[i]
		if out.Submit != in.Submit || out.Procs != in.Procs || out.Run != in.Run {
			r.addf("shape", "job %d: result altered its trace submit, procs or run", in.ID)
		}
	}
	if !r.OK() {
		return r // the result describes another workload; later checks would cascade
	}
	opt = opt.WithDefaults()
	r.JobsChecked = len(tr.Jobs)
	r.EventsChecked = len(events)

	caps := PartitionCapacities(tr.System)
	byID := make(map[int]int, len(tr.Jobs)) // trace job ID -> index
	for i := range tr.Jobs {
		byID[tr.Jobs[i].ID] = i
	}

	faulty := opt.Faults.Enabled()
	const (
		unseen = iota
		submitted
		started
		interrupted
		completed
	)
	phase := make([]uint8, len(tr.Jobs))
	startTime := make([]float64, len(tr.Jobs))
	nstarts := make([]int, len(tr.Jobs))
	reserved := make([]bool, len(tr.Jobs))
	// remaining is each job's current-attempt occupancy: the walltime-capped
	// runtime, reduced by checkpoint banking on every requeue. Completion
	// instants are checked against it exactly.
	remaining := make([]float64, len(tr.Jobs))
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		remaining[i] = j.Run
		if j.Walltime > 0 && remaining[i] > j.Walltime {
			remaining[i] = j.Walltime
		}
	}
	requeued := make([]int, len(tr.Jobs))
	credit := make([]float64, len(tr.Jobs))
	dead := make([]bool, len(tr.Jobs))
	inUse := make([]int, len(caps))
	drained := make([]int, len(caps))
	totalInUse := 0
	var lastSubmit, lastStart, lastComplete float64 // per-kind monotonicity
	violations, backfills := 0, 0
	delay := 0.0
	recount, recountDelay := 0, 0.0 // violations recounted from PromisedStart
	queued, maxQueue := 0, 0
	makespan := 0.0
	interrupts, requeues, failedN := 0, 0, 0
	var goodput, wasted float64
	var busyIntegral, lastT float64
	relaxedKind := opt.Backfill == sim.Relaxed || opt.Backfill == sim.AdaptiveRelaxed
	// Conservative backfilling with an arrival-ordered queue keeps every
	// promise: each queued job holds a reservation planned on walltime ends,
	// completions only return capacity early, and under FCFS no later
	// arrival can be ordered ahead of a promised job — so replanning only
	// moves reservations earlier. A first start behind the promise therefore
	// means some job jumped a reservation it had no right to jump, and a
	// promise-violation event must never appear at all. The guard excludes
	// the regimes where late starts are legitimate: priority policies and
	// custom scores (a better-scored arrival replans ahead of the promise),
	// fault injection (drains shrink planned capacity), and advisory
	// predictions (jobs overrun their planned ends).
	consReserved := opt.Backfill == sim.Conservative && !faulty &&
		opt.Policy == sim.FCFS && opt.CustomScore == nil && opt.WalltimePredictor == nil
	// The slip bound holds wherever the blocked head stays the head: only
	// FCFS keeps it there (any other policy, or a custom score, can legally
	// leapfrog a promised job), and only the trace's own estimates keep
	// reservations from receding (every occupancy is capped at the walltime
	// it was planned on; a predictor's advisory estimate can be overrun).
	// Fault injection is excluded for the same reason as above.
	headStable := opt.Policy == sim.FCFS && opt.CustomScore == nil &&
		opt.WalltimePredictor == nil && !faulty

	// canRetry mirrors the simulator's retry gate for the configured
	// recovery semantics.
	canRetry := func(i int) bool {
		return faulty && opt.Faults.Recovery != fault.RecoveryNone &&
			requeued[i] < opt.Faults.RetryCap
	}
	// An interrupt's outcome is decided by the event that follows it: an
	// immediate FaultJobRequeue continues the job, anything else means the
	// interrupt was terminal. pendingInt carries the undecided interrupt;
	// resolveTerminal applies the terminal accounting in the simulator's
	// exact operation order (so the goodput/wasted comparison stays
	// bit-exact).
	pendingInt := -1
	pendingElapsed := 0.0
	resolveTerminal := func() {
		i := pendingInt
		pendingInt = -1
		pf := float64(tr.Jobs[i].Procs)
		wasted += pendingElapsed * pf
		if c := credit[i]; c > 0 {
			goodput -= c * pf
			wasted += c * pf
		}
		dead[i] = true
		failedN++
		if canRetry(i) {
			r.addf("fault", "job %d failed terminally with retries remaining (%d of %d used)",
				tr.Jobs[i].ID, requeued[i], opt.Faults.RetryCap)
		}
	}

	for ei, e := range events {
		if pendingInt >= 0 && !(e.Kind == obs.FaultJobRequeue && byID[e.Job] == pendingInt) {
			resolveTerminal()
		}
		// The busy integral steps on the globally (weakly) monotone event
		// clock; a regression is caught by the per-kind checks below.
		if e.Time > lastT {
			busyIntegral += float64(totalInUse) * (e.Time - lastT)
			lastT = e.Time
		}
		if e.Part < 0 || e.Part >= len(caps) {
			r.addf("stream", "event %d (%s) names partition %d of %d", ei, e.Kind, e.Part, len(caps))
			return r
		}
		// Capacity-fault events concern a partition, not a job (Job == -1).
		switch e.Kind {
		case obs.FaultNodeDown, obs.FaultNodeUp:
			if !faulty {
				r.addf("fault", "event %d (%s) in a run with fault injection disabled", ei, e.Kind)
				return r
			}
			if e.Job != -1 {
				r.addf("fault", "event %d (%s) names job %d, want -1", ei, e.Kind, e.Job)
			}
			if e.Procs <= 0 {
				r.addf("fault", "event %d (%s) drains %d cores", ei, e.Kind, e.Procs)
			}
			if e.Kind == obs.FaultNodeDown {
				drained[e.Part] += e.Procs
				if inUse[e.Part]+drained[e.Part] > caps[e.Part] {
					r.addf("conservation",
						"partition %d holds %d cores with %d drained against capacity %d at t=%v",
						e.Part, inUse[e.Part], drained[e.Part], caps[e.Part], e.Time)
					return r
				}
				if e.Detail <= e.Time {
					r.addf("fault", "outage at t=%v promises repair at %v (not after)", e.Time, e.Detail)
				}
			} else {
				drained[e.Part] -= e.Procs
				if drained[e.Part] < 0 {
					r.addf("conservation", "partition %d restores cores it never drained at t=%v", e.Part, e.Time)
					return r
				}
				if e.Detail > e.Time {
					r.addf("fault", "restore at t=%v cites outage start %v in the future", e.Time, e.Detail)
				}
			}
			continue
		}
		i, ok := byID[e.Job]
		if !ok {
			r.addf("stream", "event %d (%s) names unknown job %d", ei, e.Kind, e.Job)
			return r
		}
		j := &tr.Jobs[i]
		if e.Procs != j.Procs {
			r.addf("stream", "event %d (%s): job %d procs %d, trace says %d", ei, e.Kind, e.Job, e.Procs, j.Procs)
		}
		if p := Partition(*j, len(caps)); e.Part != p {
			r.addf("stream", "event %d (%s): job %d on partition %d, trace maps it to %d", ei, e.Kind, e.Job, e.Part, p)
		}
		switch e.Kind {
		case obs.JobSubmit:
			if phase[i] != unseen {
				r.addf("lifecycle", "job %d submitted twice", e.Job)
			}
			phase[i] = submitted
			if e.Time != j.Submit {
				r.addf("lifecycle", "job %d submit event at t=%v, trace says %v", e.Job, e.Time, j.Submit)
			}
			if e.Time < lastSubmit {
				r.addf("lifecycle", "submit times regress at job %d (%v after %v)", e.Job, e.Time, lastSubmit)
			}
			lastSubmit = e.Time
			queued++
			maxQueue = max(maxQueue, queued)
		case obs.JobStart:
			if phase[i] != submitted {
				r.addf("lifecycle", "job %d started in phase %d (want submitted)", e.Job, phase[i])
			}
			phase[i] = started
			startTime[i] = e.Time
			nstarts[i]++
			queued--
			if nstarts[i] == 1 {
				if e.Detail != res.Jobs[i].Wait {
					r.addf("lifecycle", "job %d start wait %v, result says %v", e.Job, e.Detail, res.Jobs[i].Wait)
				}
				if promised := res.PromisedStart[i]; promised >= 0 {
					if e.Time > promised+1e-9 {
						recount++
						recountDelay += e.Time - promised
						if consReserved {
							r.addf("reservation",
								"job %d started at %v behind its conservative reservation at %v — something jumped it",
								e.Job, e.Time, promised)
						}
					}
					if headStable {
						allowance := 0.0 // EASY and Conservative promise exact starts
						if relaxedKind {
							// The adaptive factor is at most the fixed factor (Eq. 1).
							allowance = opt.RelaxFactor * max(promised-j.Submit, 0)
						}
						if slip := e.Time - promised; slip > allowance+1e-6 {
							r.addf("allowance", "job %d slipped %.3fs past its promise (allowance %.3fs, backfill %s)",
								e.Job, slip, allowance, opt.Backfill)
						}
					}
				}
			} else if e.Detail != e.Time-j.Submit {
				r.addf("lifecycle", "job %d restart wait %v, want t-submit = %v", e.Job, e.Detail, e.Time-j.Submit)
			}
			if e.Time < j.Submit {
				r.addf("lifecycle", "job %d started at %v before submission %v", e.Job, e.Time, j.Submit)
			}
			if e.Time < lastStart {
				r.addf("lifecycle", "start times regress at job %d (%v after %v)", e.Job, e.Time, lastStart)
			}
			lastStart = e.Time
			inUse[e.Part] += e.Procs
			totalInUse += e.Procs
			if inUse[e.Part] > caps[e.Part] {
				r.addf("conservation", "partition %d holds %d/%d cores at t=%v (job %d)",
					e.Part, inUse[e.Part], caps[e.Part], e.Time, e.Job)
				return r
			}
			if inUse[e.Part]+drained[e.Part] > caps[e.Part] {
				r.addf("conservation",
					"job %d runs on drained capacity: partition %d holds %d with %d drained against %d at t=%v",
					e.Job, e.Part, inUse[e.Part], drained[e.Part], caps[e.Part], e.Time)
				return r
			}
		case obs.JobComplete:
			if phase[i] != started {
				r.addf("lifecycle", "job %d completed in phase %d (want started)", e.Job, phase[i])
				return r
			}
			phase[i] = completed
			// The effective occupancy is the remaining work of the current
			// attempt (the walltime-capped runtime, minus any banked
			// checkpoint credit); the completion instant must equal the
			// attempt's start plus exactly that.
			if want := startTime[i] + remaining[i]; e.Time != want {
				r.addf("lifecycle", "job %d completed at %v, want start+run = %v", e.Job, e.Time, want)
			}
			if e.Time < lastComplete {
				r.addf("lifecycle", "completion times regress at job %d (%v after %v)", e.Job, e.Time, lastComplete)
			}
			lastComplete = e.Time
			makespan = max(makespan, e.Time)
			inUse[e.Part] -= e.Procs
			totalInUse -= e.Procs
			if inUse[e.Part] < 0 {
				r.addf("conservation", "partition %d frees cores it never held (job %d)", e.Part, e.Job)
				return r
			}
			goodput += (e.Time - startTime[i]) * float64(e.Procs)
		case obs.FaultJobInterrupt:
			if !faulty {
				r.addf("fault", "event %d (%s) in a run with fault injection disabled", ei, e.Kind)
				return r
			}
			if phase[i] != started {
				r.addf("lifecycle", "job %d interrupted in phase %d (want started)", e.Job, phase[i])
				return r
			}
			phase[i] = interrupted
			if e.Detail != e.Time-startTime[i] {
				r.addf("fault", "job %d interrupt elapsed %v, want t-start = %v",
					e.Job, e.Detail, e.Time-startTime[i])
			}
			makespan = max(makespan, e.Time)
			inUse[e.Part] -= e.Procs
			totalInUse -= e.Procs
			if inUse[e.Part] < 0 {
				r.addf("conservation", "partition %d frees cores it never held (job %d)", e.Part, e.Job)
				return r
			}
			interrupts++
			pendingInt = i
			pendingElapsed = e.Detail
		case obs.FaultJobRequeue:
			if pendingInt != i || phase[i] != interrupted {
				r.addf("fault", "job %d requeued without an immediately preceding interrupt", e.Job)
				return r
			}
			pendingInt = -1
			if !canRetry(i) {
				r.addf("fault", "job %d requeued past the retry cap (%d retries, recovery %s)",
					e.Job, requeued[i], opt.Faults.Recovery)
			}
			pf := float64(e.Procs)
			if opt.Faults.Recovery == fault.RecoveryCheckpoint {
				ckpt := opt.Faults.CheckpointInterval
				banked := math.Floor(pendingElapsed/ckpt) * ckpt
				if banked > pendingElapsed {
					banked = pendingElapsed
				}
				goodput += banked * pf
				wasted += (pendingElapsed - banked) * pf
				credit[i] += banked
				remaining[i] -= banked
			} else {
				wasted += pendingElapsed * pf
			}
			requeued[i]++
			requeues++
			phase[i] = submitted
			queued++
			maxQueue = max(maxQueue, queued)
			if e.Detail != remaining[i] {
				r.addf("fault", "job %d requeued with remaining work %v, want %v", e.Job, e.Detail, remaining[i])
			}
		case obs.ReservationMade:
			if reserved[i] {
				r.addf("promise", "job %d reserved twice", e.Job)
			}
			reserved[i] = true
			if phase[i] != submitted {
				r.addf("promise", "job %d reserved in phase %d (want submitted)", e.Job, phase[i])
			}
			if opt.Backfill == sim.NoBackfill {
				r.addf("promise", "job %d reserved with backfilling off", e.Job)
			}
			if e.Detail != res.PromisedStart[i] {
				r.addf("promise", "job %d reservation event promises %v, result says %v",
					e.Job, e.Detail, res.PromisedStart[i])
			}
			if e.Detail < e.Time {
				r.addf("promise", "job %d promised start %v before the decision at %v", e.Job, e.Detail, e.Time)
			}
		case obs.ReservationRelaxed:
			if !relaxedKind {
				r.addf("promise", "relaxation event under %s backfilling", opt.Backfill)
			}
			if !reserved[i] {
				r.addf("promise", "job %d relaxed without a reservation", e.Job)
			}
			if e.Detail < res.PromisedStart[i] {
				r.addf("promise", "job %d relaxed deadline %v below its promise %v",
					e.Job, e.Detail, res.PromisedStart[i])
			}
		case obs.PromiseViolation:
			violations++
			delay += e.Detail
			if consReserved {
				r.addf("reservation",
					"job %d violated its promise by %v under conservative backfilling, which must keep every reservation",
					e.Job, e.Detail)
			}
			if !reserved[i] {
				r.addf("promise", "job %d violated a promise it never received", e.Job)
			}
			if phase[i] != started || e.Time != startTime[i] || nstarts[i] != 1 {
				r.addf("promise", "job %d violation not at its first start instant", e.Job)
			}
			if want := startTime[i] - res.PromisedStart[i]; e.Detail != want {
				r.addf("promise", "job %d violation delay %v, want start-promise = %v", e.Job, e.Detail, want)
			}
		case obs.Backfill:
			backfills++
			// The simulator emits a backfill right behind the start it
			// qualifies, so a duplicate cannot inflate the count.
			if ei == 0 || events[ei-1].Kind != obs.JobStart || events[ei-1].Job != e.Job || e.Time != startTime[i] {
				r.addf("stream", "job %d backfill event does not directly follow its start", e.Job)
			}
			if e.Detail < 1 {
				r.addf("stream", "job %d backfilled from queue position %v", e.Job, e.Detail)
			}
		default:
			r.addf("stream", "event %d has unknown kind %d", ei, e.Kind)
			return r
		}
		if len(r.Findings) > 20 {
			r.addf("stream", "stopping after 20 findings")
			return r
		}
	}
	if pendingInt >= 0 {
		resolveTerminal()
	}

	for i := range tr.Jobs {
		if phase[i] != completed && !(phase[i] == interrupted && dead[i]) {
			r.addf("lifecycle", "job %d stream incomplete (phase %d)", tr.Jobs[i].ID, phase[i])
		}
		if dead[i] && res.Jobs[i].Status != trace.Failed {
			r.addf("fault", "job %d failed terminally but the result marks it %v",
				tr.Jobs[i].ID, res.Jobs[i].Status)
		}
		if reserved[i] != (res.PromisedStart[i] >= 0) {
			r.addf("promise", "job %d reservation events disagree with PromisedStart %v",
				tr.Jobs[i].ID, res.PromisedStart[i])
		}
	}
	for p, n := range inUse {
		if n != 0 {
			r.addf("conservation", "partition %d ends the stream with %d cores leaked", p, n)
		}
		if drained[p] != 0 {
			r.addf("conservation", "partition %d ends the stream with %d cores still drained", p, drained[p])
		}
	}
	if violations != res.Violations {
		r.addf("promise", "%d violation events, result reports %d", violations, res.Violations)
	}
	if delay != res.ViolationDelay {
		r.addf("promise", "violation delay from events %v, result reports %v", delay, res.ViolationDelay)
	}
	if recount != res.Violations {
		r.addf("promise", "recounted %d violations from PromisedStart, result reports %d", recount, res.Violations)
	}
	if recountDelay != res.ViolationDelay {
		r.addf("promise", "recounted violation delay %v from PromisedStart, result reports %v",
			recountDelay, res.ViolationDelay)
	}
	if backfills != res.Backfilled {
		r.addf("stream", "%d backfill events, result reports %d", backfills, res.Backfilled)
	}
	if maxQueue != res.MaxQueueLen {
		r.addf("metrics", "reported max queue %d, recomputed %d", res.MaxQueueLen, maxQueue)
	}
	if makespan != res.Makespan {
		r.addf("metrics", "reported makespan %v, recomputed %v", res.Makespan, makespan)
	}
	if n := float64(len(res.Jobs)); n > 0 {
		// Summed in arrival order like the simulator's fold, so exact.
		var sumWait, sumBsld float64
		for i := range res.Jobs {
			sumWait += res.Jobs[i].Wait
			sumBsld += res.Jobs[i].BoundedSlowdown(trace.BsldTau)
		}
		if res.AvgWait != sumWait/n {
			r.addf("metrics", "reported avg wait %v, recomputed %v", res.AvgWait, sumWait/n)
		}
		if res.AvgBsld != sumBsld/n {
			r.addf("metrics", "reported avg bsld %v, recomputed %v", res.AvgBsld, sumBsld/n)
		}
	}
	util := 0.0
	if makespan > 0 {
		util = busyIntegral / (float64(tr.System.TotalCores) * makespan)
	}
	if !floatEq(res.Utilization, util) {
		r.addf("metrics", "reported utilization %v, recomputed %v", res.Utilization, util)
	}
	if interrupts != res.Interrupted {
		r.addf("fault", "%d interrupt events, result reports %d", interrupts, res.Interrupted)
	}
	if requeues != res.Requeued {
		r.addf("fault", "%d requeue events, result reports %d", requeues, res.Requeued)
	}
	if failedN != res.FaultFailed {
		r.addf("fault", "%d terminal failures in the stream, result reports %d", failedN, res.FaultFailed)
	}
	if faulty {
		// The stream replays the simulator's accounting in its exact
		// operation order, so the split is compared bit-exactly; the busy
		// integral is re-segmented by event times, so it gets float slack.
		if goodput != res.GoodputCoreSeconds {
			r.addf("fault", "goodput from events %v core-seconds, result reports %v",
				goodput, res.GoodputCoreSeconds)
		}
		if wasted != res.WastedCoreSeconds {
			r.addf("fault", "wasted from events %v core-seconds, result reports %v",
				wasted, res.WastedCoreSeconds)
		}
		if !floatEq(goodput+wasted, busyIntegral) {
			r.addf("fault", "goodput %v + wasted %v != busy integral %v core-seconds",
				goodput, wasted, busyIntegral)
		}
	}
	return r
}
