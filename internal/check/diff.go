package check

import (
	"fmt"
	"math"
	"strings"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// DiffReport lists the disagreements between the optimized simulator and
// the reference oracle on one workload.
type DiffReport struct {
	Mismatches []string
	// Jobs is the number of jobs whose schedules were compared.
	Jobs int
}

// OK reports whether the two simulators agreed exactly.
func (d *DiffReport) OK() bool { return len(d.Mismatches) == 0 }

// Err returns nil on agreement, else an error naming the first mismatches.
func (d *DiffReport) Err() error {
	if d.OK() {
		return nil
	}
	n := len(d.Mismatches)
	msgs := d.Mismatches
	if n > 5 {
		msgs = append(append([]string(nil), msgs[:5]...), fmt.Sprintf("... and %d more", n-5))
	}
	return fmt.Errorf("check: simulator diverges from oracle (%d mismatches): %s",
		n, strings.Join(msgs, "; "))
}

func (d *DiffReport) addf(format string, args ...interface{}) {
	d.Mismatches = append(d.Mismatches, fmt.Sprintf(format, args...))
}

// nearlyEq absorbs summation-order differences in aggregate metrics; all
// per-job quantities are compared exactly.
func nearlyEq(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// Diff runs both the optimized simulator and the naive oracle on tr under
// opt and compares the schedules. Start times, promises, and the violation/
// backfill counters must match exactly; aggregate metrics must match to
// float tolerance. Deterministic options only (CustomScore is allowed but
// must itself be deterministic).
func Diff(tr *trace.Trace, opt sim.Options) (*DiffReport, error) {
	fast, err := sim.Run(tr, opt)
	if err != nil {
		return nil, fmt.Errorf("check: optimized simulator: %w", err)
	}
	ref, err := Oracle(tr, opt)
	if err != nil {
		return nil, fmt.Errorf("check: oracle: %w", err)
	}
	return compare(fast, ref), nil
}

// compare reports every disagreement between an optimized result and a
// reference result for the same workload.
func compare(fast, ref *sim.Result) *DiffReport {
	d := &DiffReport{Jobs: len(ref.Jobs)}
	if len(fast.Jobs) != len(ref.Jobs) {
		d.addf("job count %d vs oracle %d", len(fast.Jobs), len(ref.Jobs))
		return d
	}
	for i := range ref.Jobs {
		if fast.Jobs[i].Wait != ref.Jobs[i].Wait {
			d.addf("job %d wait %v vs oracle %v", ref.Jobs[i].ID, fast.Jobs[i].Wait, ref.Jobs[i].Wait)
		}
		if fast.PromisedStart[i] != ref.PromisedStart[i] {
			d.addf("job %d promise %v vs oracle %v", ref.Jobs[i].ID, fast.PromisedStart[i], ref.PromisedStart[i])
		}
		if fast.Jobs[i].Status != ref.Jobs[i].Status {
			d.addf("job %d status %v vs oracle %v", ref.Jobs[i].ID, fast.Jobs[i].Status, ref.Jobs[i].Status)
		}
		if len(d.Mismatches) > 20 {
			d.addf("stopping after 20 per-job mismatches")
			return d
		}
	}
	if fast.Interrupted != ref.Interrupted {
		d.addf("interrupted %d vs oracle %d", fast.Interrupted, ref.Interrupted)
	}
	if fast.Requeued != ref.Requeued {
		d.addf("requeued %d vs oracle %d", fast.Requeued, ref.Requeued)
	}
	if fast.FaultFailed != ref.FaultFailed {
		d.addf("fault-failed %d vs oracle %d", fast.FaultFailed, ref.FaultFailed)
	}
	if !nearlyEq(fast.GoodputCoreSeconds, ref.GoodputCoreSeconds) {
		d.addf("goodput %v vs oracle %v", fast.GoodputCoreSeconds, ref.GoodputCoreSeconds)
	}
	if !nearlyEq(fast.WastedCoreSeconds, ref.WastedCoreSeconds) {
		d.addf("wasted %v vs oracle %v", fast.WastedCoreSeconds, ref.WastedCoreSeconds)
	}
	if fast.Violations != ref.Violations {
		d.addf("violations %d vs oracle %d", fast.Violations, ref.Violations)
	}
	if !nearlyEq(fast.ViolationDelay, ref.ViolationDelay) {
		d.addf("violation delay %v vs oracle %v", fast.ViolationDelay, ref.ViolationDelay)
	}
	if fast.Backfilled != ref.Backfilled {
		d.addf("backfilled %d vs oracle %d", fast.Backfilled, ref.Backfilled)
	}
	if fast.MaxQueueLen != ref.MaxQueueLen {
		d.addf("max queue %d vs oracle %d", fast.MaxQueueLen, ref.MaxQueueLen)
	}
	if fast.Makespan != ref.Makespan {
		d.addf("makespan %v vs oracle %v", fast.Makespan, ref.Makespan)
	}
	if !nearlyEq(fast.AvgWait, ref.AvgWait) {
		d.addf("avg wait %v vs oracle %v", fast.AvgWait, ref.AvgWait)
	}
	if !nearlyEq(fast.AvgBsld, ref.AvgBsld) {
		d.addf("avg bsld %v vs oracle %v", fast.AvgBsld, ref.AvgBsld)
	}
	if !nearlyEq(fast.Utilization, ref.Utilization) {
		d.addf("utilization %v vs oracle %v", fast.Utilization, ref.Utilization)
	}
	return d
}

// Verify is the full differential gate for one workload and option set: the
// optimized simulator must match the oracle exactly AND its output must
// pass an auditor with zero findings. Used by the differential tests, the
// fuzz targets, and schedsim -audit's self-check mode.
//
// Verify records the run's decision stream. On fault-free runs the schedule
// auditor (Audit) checks the result against it. Under fault injection,
// Audit's reconstruction (one start per job at Submit+Wait, occupancy Run)
// no longer describes the schedule, so the stream auditor runs instead,
// which understands interrupts, requeues, and drained capacity.
func Verify(tr *trace.Trace, opt sim.Options) error {
	rec := &obs.Recorder{}
	opt.Observer = obs.Tee(opt.Observer, rec)
	res, err := sim.Run(tr, opt)
	if err != nil {
		return fmt.Errorf("check: optimized simulator: %w", err)
	}
	audit, under := Audit, fmt.Sprintf("under %s + %s", opt.Policy, opt.Backfill)
	if opt.Faults.Enabled() {
		audit, under = AuditStream, under+" with faults"
	}
	if err := audit(tr, opt, rec.Events, res).Err(); err != nil {
		return fmt.Errorf("%w (%s)", err, under)
	}
	ref, err := Oracle(tr, opt)
	if err != nil {
		return fmt.Errorf("check: oracle: %w", err)
	}
	if err := compare(res, ref).Err(); err != nil {
		return fmt.Errorf("%w (%s)", err, under)
	}
	return nil
}

// Combos enumerates every policy x backfill option set, with the given
// relaxation factor applied to the relaxed kinds. The differential sweep
// runs each of them on every verification workload.
func Combos(relax float64) []sim.Options {
	out := make([]sim.Options, 0, len(sim.Policies)*len(sim.Backfills))
	for _, p := range sim.Policies {
		for _, b := range sim.Backfills {
			out = append(out, sim.Options{Policy: p, Backfill: b, RelaxFactor: relax})
		}
	}
	return out
}
