package check

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// This file is the conservative-backfilling differential gate: the stress
// workloads (deep tie-heavy queues, heavy walltime overestimation) pin the
// incrementally maintained reservation plan against the O(n²) oracle — both
// the Result and the emitted decision stream, event for event.

// streamVsOracle asserts the recorded decision stream reproduces the
// oracle's schedule: every job's first start at the oracle's Submit+Wait,
// every reservation event promising the oracle's promise, and exactly the
// oracle's number of backfills. compareOracle already pins the Result against
// the oracle; this pins the event stream — the trace's external interface —
// to the same reference.
func streamVsOracle(t *testing.T, label string, tr *trace.Trace, events []obs.Event, ref *sim.Result) {
	t.Helper()
	errs := 0
	errorf := func(format string, args ...interface{}) {
		if errs < 10 {
			t.Errorf(label+": "+format, args...)
		}
		errs++
	}
	started := make([]bool, tr.Len())
	promised := make([]bool, tr.Len())
	backfills := 0
	for _, e := range events {
		switch e.Kind {
		case obs.JobStart:
			if started[e.Job] {
				continue // restarts are a fault-path concept; not expected here
			}
			started[e.Job] = true
			if want := tr.Jobs[e.Job].Submit + ref.Jobs[e.Job].Wait; e.Time != want {
				errorf("job %d starts at %v, oracle schedules %v", e.Job, e.Time, want)
			}
		case obs.ReservationMade:
			if promised[e.Job] {
				continue
			}
			promised[e.Job] = true
			if e.Detail != ref.PromisedStart[e.Job] {
				errorf("job %d promised %v, oracle promises %v", e.Job, e.Detail, ref.PromisedStart[e.Job])
			}
		case obs.Backfill:
			backfills++
		}
	}
	for i := range started {
		if !started[i] {
			errorf("job %d never starts in the stream", i)
		}
		if promised[i] != (ref.PromisedStart[i] >= 0) {
			errorf("job %d promise events disagree with oracle promise %v", i, ref.PromisedStart[i])
		}
	}
	if backfills != ref.Backfilled {
		errorf("stream shows %d backfills, oracle schedules %d", backfills, ref.Backfilled)
	}
	if errs > 10 {
		t.Errorf("%s: ... and %d more stream mismatches", label, errs-10)
	}
}

// TestConservativeStressSweep runs the conservative stress workloads across
// every policy (plus perfect-estimate planning) and demands triple
// agreement: Result == oracle, decision stream == oracle schedule, and a
// clean stream audit (which, under FCFS, includes the reservation
// invariant: no start ever falls behind its promise).
func TestConservativeStressSweep(t *testing.T) {
	days := 0.3
	if testing.Short() {
		days = 0.12
	}
	for _, p := range synth.VerifyConsProfiles(days) {
		p := p
		t.Run(p.Sys.Name, func(t *testing.T) {
			t.Parallel()
			tr := verifyTrace(t, p, 7)
			// Vacuity guard: the stress profiles quantize submits to whole
			// seconds precisely so arrival batches collide on exact ties.
			ties := 0
			for i := 1; i < tr.Len(); i++ {
				if tr.Jobs[i].Submit == tr.Jobs[i-1].Submit {
					ties++
				}
			}
			if ties == 0 {
				t.Fatalf("%s has no exact submit ties; the tie-heavy stress is vacuous", p.Sys.Name)
			}
			t.Logf("%s: %d jobs, %d exact submit ties", p.Sys.Name, tr.Len(), ties)

			for _, pol := range sim.Policies {
				for _, ua := range []bool{false, true} {
					opt := sim.Options{Policy: pol, Backfill: sim.Conservative, UseActualRuntime: ua}
					label := fmt.Sprintf("%s ua=%v", opt.Policy, ua)
					rec := &obs.Recorder{}
					opt.Observer = rec
					res, err := sim.Run(tr, opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					ref, err := Oracle(tr, opt)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					if err := compareOracle(res, ref); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if err := Audit(tr, opt, rec.Events, res).Err(); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					streamVsOracle(t, label, tr, rec.Events, ref)
				}
			}
		})
	}
}

// TestConservativeStressUnderFaults drives the stress workloads through
// fault drains with conservative backfilling: outages and interrupts
// invalidate the maintained plan, and the repaired schedule must still
// match the oracle and pass the stream auditor.
func TestConservativeStressUnderFaults(t *testing.T) {
	days := 0.2
	if testing.Short() {
		days = 0.1
	}
	tr := verifyTrace(t, synth.VerifyConsDeep(days), 7)
	scenarios := faultScenarios()
	for _, name := range []string{"outage-scripted", "mixed"} {
		for _, pol := range []sim.Policy{sim.FCFS, sim.SJF} {
			opt := sim.Options{Policy: pol, Backfill: sim.Conservative, Faults: scenarios[name]}
			if err := Verify(tr, opt); err != nil {
				t.Errorf("%s under %s: %v", name, pol, err)
			}
		}
	}
}

// TestStreamAuditReservationTamper pins the reservation invariant: on an
// FCFS conservative stream, dragging a promised job's start behind its
// reservation — or forging a promise-violation event — must raise a
// "reservation" finding.
func TestStreamAuditReservationTamper(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyConsDeep(0.15), 9)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.Conservative}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(tr, opt, rec.Events, res).Err(); err != nil {
		t.Fatalf("clean conservative stream rejected: %v", err)
	}

	// A promised job and its first start event.
	victim, startIdx := -1, -1
	for i, e := range rec.Events {
		if e.Kind == obs.JobStart && res.PromisedStart[e.Job] >= 0 {
			victim, startIdx = e.Job, i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no promised job in stress workload; increase load")
	}

	cases := []struct {
		name    string
		corrupt func(evs []obs.Event) []obs.Event
	}{
		{"start dragged behind reservation", func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			// Push the start past the promise however far away it was.
			out[startIdx].Time = res.PromisedStart[victim] + 3600
			return out
		}},
		{"forged violation event", func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			v := obs.Event{Kind: obs.PromiseViolation, Time: out[startIdx].Time,
				Job: victim, Part: out[startIdx].Part, Procs: out[startIdx].Procs, Detail: 5}
			return append(out[:startIdx+1], append([]obs.Event{v}, out[startIdx+1:]...)...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Audit(tr, opt, tc.corrupt(rec.Events), res)
			if rep.OK() {
				t.Fatalf("%s went undetected", tc.name)
			}
			found := false
			for _, f := range rep.Findings {
				if f.Invariant == "reservation" {
					found = true
				}
			}
			if !found {
				t.Errorf("want a \"reservation\" finding, got: %v", rep.Err())
			}
		})
	}
}

// TestReservationInvariantScoped: under a priority policy the reservation
// invariant must stay out of the way — later higher-priority arrivals
// legitimately replan ahead of a promised job, so violated promises on an
// honest SJF conservative stream are not findings.
func TestReservationInvariantScoped(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyConsDeep(0.15), 9)
	opt := sim.Options{Policy: sim.SJF, Backfill: sim.Conservative}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Skip("no displaced promise in workload; nothing to scope")
	}
	if err := Audit(tr, opt, rec.Events, res).Err(); err != nil {
		t.Fatalf("honest SJF stream with displaced promises must audit clean: %v", err)
	}
}

// TestConsPlanMatchesNaiveAvailability is the check-side property test for
// the incremental reservation plan: every audited planning pass is replayed
// on the oracle's availability model — plain reservation lists, no
// incremental state at all — and the maintained plan must be its exact
// prefix. It must not run in parallel: the audit hook is process-global.
func TestConsPlanMatchesNaiveAvailability(t *testing.T) {
	var (
		mu     sync.Mutex
		passes int
		errs   []string
	)
	sim.SetConsPlanAudit(func(a sim.ConsPlanAudit) {
		mu.Lock()
		defer mu.Unlock()
		passes++
		// Anchor the base step function at now, the way the oracle builds
		// its availability at every decision point.
		k := sort.SearchFloat64s(a.BaseTimes, a.Now)
		if k >= len(a.BaseTimes) || a.BaseTimes[k] != a.Now {
			k--
		}
		if k < 0 {
			k = 0
		}
		av := &availability{
			baseTimes: append([]float64{a.Now}, a.BaseTimes[k+1:]...),
			baseFree:  append([]int{a.BaseFree[k]}, a.BaseFree[k+1:]...),
		}
		for pos := 0; pos < len(a.Procs); pos++ {
			st, _ := av.earliest(a.Now, a.Procs[pos], a.ReqTime[pos])
			av.reserve(st, a.ReqTime[pos], a.Procs[pos])
			if pos < len(a.Starts) {
				if st != a.Starts[pos] {
					if len(errs) < 10 {
						errs = append(errs, fmt.Sprintf(
							"part %d t=%v pos %d (kept %d): plan start %v, naive model plans %v",
							a.Part, a.Now, pos, a.Kept, a.Starts[pos], st))
					}
				}
			} else if st <= a.Now+1e-9 {
				if len(errs) < 10 {
					errs = append(errs, fmt.Sprintf(
						"part %d t=%v pos %d: unplanned job could start now (naive model plans %v)",
						a.Part, a.Now, pos, st))
				}
			}
		}
	})
	defer sim.SetConsPlanAudit(nil)

	for _, p := range synth.VerifyConsProfiles(0.1) {
		tr := verifyTrace(t, p, 7)
		for _, pol := range []sim.Policy{sim.FCFS, sim.SJF} {
			if _, err := sim.Run(tr, sim.Options{Policy: pol, Backfill: sim.Conservative}); err != nil {
				t.Fatalf("%s under %s: %v", p.Sys.Name, pol, err)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, e := range errs {
		t.Error(e)
	}
	if passes == 0 {
		t.Error("audit hook never fired; property test is vacuous")
	}
}

// FuzzConservativePlan lives in fuzz_test.go's corpus format but pins the
// conservative planner specifically; the decoder below derives a fault spec
// from the byte that normally selects the backfill kind.
func consFuzzFaults(b byte, cap0 int) *fault.Config {
	switch b % 4 {
	case 1:
		return &fault.Config{
			Outages:  []fault.Outage{{Part: 0, Start: float64(b) * 13, Duration: 200 + float64(b)*7, Cores: 1 + int(b)%cap0}},
			Recovery: fault.RecoveryRequeue, RetryCap: 2,
		}
	case 2:
		return &fault.Config{
			Seed: uint64(b), InterruptProb: float64(b%10) / 50,
			Recovery: fault.RecoveryRequeue, RetryCap: 2,
		}
	case 3:
		return &fault.Config{
			Seed: uint64(b), MTBF: 500 + float64(b)*29, MTTR: 100 + float64(b)*11,
			OutageFrac: 0.5, InterruptProb: float64(b%8) / 100,
			Recovery: fault.RecoveryCheckpoint, RetryCap: 3, CheckpointInterval: 300,
		}
	}
	return nil
}

// FuzzConservativePlan forces conservative backfilling on arbitrary decoded
// workloads — including fault drains — and runs the full differential gate:
// no panic, oracle-exact, auditor-clean.
func FuzzConservativePlan(f *testing.F) {
	// Seeds: fault-free ties, scripted outage, interrupts with zero-runtime
	// jobs, generated outages under checkpoint recovery.
	f.Add([]byte{0, 0, 0, 6, 10, 0, 0, 9, 8, 2, 0, 40, 0, 4, 4, 3, 0, 0, 0, 20, 20, 1, 1, 9})
	f.Add([]byte{1, 5, 2, 4, 20, 1, 5, 12, 12, 7, 2, 30, 0, 0, 0, 4, 1, 0, 9, 30, 3, 2, 0, 64})
	f.Add([]byte{8, 6, 1, 8, 10, 1, 2, 0, 16, 1, 0, 16, 2, 0, 8, 5, 0, 32, 1, 1, 1, 0, 0, 0})
	f.Add([]byte{3, 7, 0, 2, 0, 3, 0, 255, 255, 13, 1, 1, 0, 0, 200, 2, 0, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, opt := decodeFuzzInput(data)
		if tr == nil {
			return
		}
		opt.Backfill = sim.Conservative
		opt.Faults = consFuzzFaults(data[1], PartitionCapacities(tr.System)[0])
		if err := Verify(tr, opt); err != nil {
			t.Fatalf("%s + conservative on %d jobs: %v", opt.Policy, tr.Len(), err)
		}
	})
}
