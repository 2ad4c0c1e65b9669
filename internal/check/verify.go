package check

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// Verify is the differential gate for one workload and option set. It runs
// the materialized simulator (sim.Run) once, recording its decision stream,
// and demands that
//
//   - the run passes the auditor (Audit): its decision stream and Result
//     against the trace, fault runs included;
//   - the schedule matches the O(n²) oracle: every wait, promise, status and
//     counter exactly, the float aggregates to summation-order tolerance;
//   - every other engine path (see engines) reproduces the materialized run
//     exactly: the whole sim.Result and the decision events.
//
// Deterministic options only (CustomScore is allowed but must itself be
// deterministic). The caller's Observer and Metrics are never called: every
// run records into the harness's own recorders. Used by the differential
// tests, the fuzz targets, and schedsim -audit.
func Verify(tr *trace.Trace, opt sim.Options) error {
	return verify(tr, opt, true)
}

// verify is Verify with the oracle step optional, for traces beyond the
// O(n²) oracle's reach: they still get the audit and every engine row.
func verify(tr *trace.Trace, opt sim.Options, oracle bool) error {
	opt.Observer, opt.Metrics = nil, nil
	under := fmt.Sprintf("under %s + %s", opt.Policy, opt.Backfill)
	if opt.Faults.Enabled() {
		under += " with faults"
	}
	rec := &obs.Recorder{}
	matOpt := opt
	matOpt.Observer = rec
	mat, err := sim.Run(tr, matOpt)
	if err != nil {
		return fmt.Errorf("check: materialized simulator: %w (%s)", err, under)
	}
	if err := Audit(tr, opt, rec.Events, mat).Err(); err != nil {
		return fmt.Errorf("%w (%s)", err, under)
	}
	if oracle {
		ref, err := Oracle(tr, opt)
		if err != nil {
			return fmt.Errorf("check: oracle: %w (%s)", err, under)
		}
		if err := compareOracle(mat, ref); err != nil {
			return fmt.Errorf("%w (%s)", err, under)
		}
	}
	if err := checkEngines(tr, opt, mat, rec.Events); err != nil {
		return fmt.Errorf("%w (%s)", err, under)
	}
	return nil
}

// engine is one row of the engine table: a way to run the simulator other
// than sim.Run.
type engine struct {
	name   string
	faults bool // whether the engine accepts fault injection
	run    func(tr *trace.Trace, opt sim.Options) (engineRun, error)
}

// engineRun is what one engine row's run produced: its Result, the Summary
// of a second run when the engine has a summary path (nil otherwise), the
// decision events the engine emitted, and the time before which those
// must equal the materialized run's events (+Inf for the whole stream).
type engineRun struct {
	res    *sim.Result
	sum    *sim.Summary
	events []obs.Event
	until  float64
}

// engines is the engine table. A new engine path gets a differential pin by
// adding a row here.
var engines = []engine{
	{name: "streamed", run: runStreamed},
	{name: "forked", faults: true, run: runForked},
}

// runStreamed replays tr through the windowed streaming simulator. The
// retired rows become the Result's Jobs and PromisedStart, so the whole
// Result compares.
func runStreamed(tr *trace.Trace, opt sim.Options) (engineRun, error) {
	rec := &obs.Recorder{}
	opt.Observer = rec
	var jobs []trace.Job
	var promised []float64
	res, err := sim.RunStream(trace.NewSliceStream(tr), opt, func(r sim.StreamRow) error {
		jobs = append(jobs, r.Job)
		promised = append(promised, r.Promised)
		return nil
	})
	if err != nil {
		return engineRun{}, err
	}
	res.Jobs, res.PromisedStart = jobs, promised
	return engineRun{res: res, events: rec.Events, until: math.Inf(1)}, nil
}

// runForked pauses a checkpoint at the middle arrival's submit instant and
// runs two forks of it to completion, one through Run and one through
// RunSummary. The checkpoint's event tap sees the events strictly before
// the pause; the forks are headless.
func runForked(tr *trace.Trace, opt sim.Options) (engineRun, error) {
	pause := 0.0
	if n := tr.Len(); n > 0 {
		pause = tr.Jobs[n/2].Submit
	}
	tap := &obs.Recorder{}
	opt.Observer = tap
	ck, err := sim.RunToCheckpoint(tr, opt, pause)
	if err != nil {
		return engineRun{}, err
	}
	f, err := ck.Fork()
	if err != nil {
		return engineRun{}, err
	}
	sum, err := f.RunSummary(context.Background())
	if err != nil {
		return engineRun{}, fmt.Errorf("summary: %w", err)
	}
	res, err := ck.WhatIf(context.Background())
	return engineRun{res: res, sum: sum, events: tap.Events, until: pause}, err
}

// checkEngines runs every engine row that accepts opt and compares it with
// the materialized run mat and its decision events.
func checkEngines(tr *trace.Trace, opt sim.Options, mat *sim.Result, events []obs.Event) error {
	for _, e := range engines {
		if e.faults || !opt.Faults.Enabled() {
			if err := e.check(tr, opt, mat, events); err != nil {
				return err
			}
		}
	}
	return nil
}

// check runs e on tr under opt and compares it with the materialized run.
func (e engine) check(tr *trace.Trace, opt sim.Options, mat *sim.Result, events []obs.Event) error {
	r, err := e.run(tr, opt)
	if err != nil {
		return fmt.Errorf("check: %s engine: %w", e.name, err)
	}
	n := 0
	for n < len(events) && events[n].Time < r.until {
		n++
	}
	err = sameRun(r.res, r.events, mat, events[:n])
	if err == nil && r.sum != nil {
		err = exact("Summary", reflect.ValueOf(*r.sum), reflect.ValueOf(*mat.Summary()))
	}
	if err != nil {
		return fmt.Errorf("check: %s engine diverges from the materialized run: %w", e.name, err)
	}
	return nil
}

// sameRun reports the first difference between two runs: their Results,
// then their decision events.
func sameRun(got *sim.Result, gotEvents []obs.Event, want *sim.Result, wantEvents []obs.Event) error {
	if err := exact("Result", reflect.ValueOf(*got), reflect.ValueOf(*want)); err != nil {
		return err
	}
	return exact("events", reflect.ValueOf(gotEvents), reflect.ValueOf(wantEvents))
}

// exact returns an error naming the first difference between got and want,
// two values of one type: structs field by field, slices element by
// element, everything else with ==. There is no epsilon: every engine path
// promises float-for-float identity. Walking the types by reflection means
// a field added to sim.Result or obs.Event is compared without editing a
// list.
func exact(path string, got, want reflect.Value) error {
	if want.Comparable() && got.Equal(want) {
		return nil
	}
	switch want.Kind() {
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			if err := exact(path+"."+want.Type().Field(i).Name, got.Field(i), want.Field(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice:
		if got.Len() != want.Len() {
			return fmt.Errorf("%s: length %d, want %d", path, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			g, w := got.Index(i), want.Index(i)
			if w.Comparable() && g.Equal(w) {
				continue // build the element's path only for a difference
			}
			if err := exact(fmt.Sprintf("%s[%d]", path, i), g, w); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%s = %v, want %v", path, got, want)
}

// nearlyEq absorbs summation-order differences in aggregate metrics; all
// per-job quantities are compared exactly.
func nearlyEq(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// compareOracle returns an error naming the disagreements between the
// materialized result and the oracle's. Start times, promises, statuses and
// every counter must match exactly; float aggregates must match to
// tolerance.
func compareOracle(fast, ref *sim.Result) error {
	var bad []string
	addf := func(format string, args ...interface{}) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	if len(fast.Jobs) != len(ref.Jobs) {
		addf("job count %d vs oracle %d", len(fast.Jobs), len(ref.Jobs))
	}
	for i := 0; i < len(ref.Jobs) && len(fast.Jobs) == len(ref.Jobs) && len(bad) <= 20; i++ {
		if fast.Jobs[i].Wait != ref.Jobs[i].Wait {
			addf("job %d wait %v vs oracle %v", ref.Jobs[i].ID, fast.Jobs[i].Wait, ref.Jobs[i].Wait)
		}
		if fast.PromisedStart[i] != ref.PromisedStart[i] {
			addf("job %d promise %v vs oracle %v", ref.Jobs[i].ID, fast.PromisedStart[i], ref.PromisedStart[i])
		}
		if fast.Jobs[i].Status != ref.Jobs[i].Status {
			addf("job %d status %v vs oracle %v", ref.Jobs[i].ID, fast.Jobs[i].Status, ref.Jobs[i].Status)
		}
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"interrupted", fast.Interrupted, ref.Interrupted},
		{"requeued", fast.Requeued, ref.Requeued},
		{"fault-failed", fast.FaultFailed, ref.FaultFailed},
		{"violations", fast.Violations, ref.Violations},
		{"backfilled", fast.Backfilled, ref.Backfilled},
		{"max queue", fast.MaxQueueLen, ref.MaxQueueLen},
	} {
		if c.got != c.want {
			addf("%s %d vs oracle %d", c.name, c.got, c.want)
		}
	}
	if fast.Makespan != ref.Makespan {
		addf("makespan %v vs oracle %v", fast.Makespan, ref.Makespan)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"goodput", fast.GoodputCoreSeconds, ref.GoodputCoreSeconds},
		{"wasted", fast.WastedCoreSeconds, ref.WastedCoreSeconds},
		{"violation delay", fast.ViolationDelay, ref.ViolationDelay},
		{"avg wait", fast.AvgWait, ref.AvgWait},
		{"avg bsld", fast.AvgBsld, ref.AvgBsld},
		{"utilization", fast.Utilization, ref.Utilization},
	} {
		if !nearlyEq(c.got, c.want) {
			addf("%s %v vs oracle %v", c.name, c.got, c.want)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	n := len(bad)
	if n > 5 {
		bad = append(bad[:5], fmt.Sprintf("... and %d more", n-5))
	}
	return fmt.Errorf("check: simulator diverges from oracle (%d mismatches): %s", n, strings.Join(bad, "; "))
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
