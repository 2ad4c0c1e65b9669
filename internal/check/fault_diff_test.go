package check

import (
	"strings"
	"testing"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// faultScenarios are the fault configs the differential sweep crosses with
// scheduling options: scripted and generated outages, random interrupts
// under each recovery mode, scripted kills, and a mixed scenario. Horizons
// and rates are tuned to the ~0.2-day verification workloads so every
// scenario actually drains capacity and interrupts attempts.
func faultScenarios() map[string]*fault.Config {
	return map[string]*fault.Config{
		"outage-scripted": {
			Outages:  []fault.Outage{{Part: 0, Start: 1800, Duration: 3600, Cores: 12}},
			Recovery: fault.RecoveryRequeue, RetryCap: 3,
		},
		"outage-generated": {
			Seed: 42, MTBF: 4000, MTTR: 1200, OutageFrac: 0.5,
			Recovery: fault.RecoveryRequeue, RetryCap: 4,
		},
		"interrupt-none": {
			Seed: 7, InterruptProb: 0.04, Recovery: fault.RecoveryNone,
		},
		"interrupt-requeue": {
			Seed: 7, InterruptProb: 0.08, Recovery: fault.RecoveryRequeue, RetryCap: 2,
		},
		"interrupt-checkpoint": {
			Seed: 7, InterruptProb: 0.08, Recovery: fault.RecoveryCheckpoint,
			RetryCap: 2, CheckpointInterval: 600,
		},
		"kills-scripted": {
			Kills:    []fault.JobKill{{Job: 0, After: 30}, {Job: 5, After: 120}, {Job: 9, After: 1}},
			Recovery: fault.RecoveryRequeue, RetryCap: 1,
		},
		"mixed": {
			Seed: 13, MTBF: 5000, MTTR: 900, OutageFrac: 0.4, InterruptProb: 0.03,
			Recovery: fault.RecoveryCheckpoint, RetryCap: 3, CheckpointInterval: 450,
		},
	}
}

// TestFaultDifferentialSweep is the fault-injection differential gate: for
// every fault scenario and a spread of policy x backfill combinations, the
// optimized simulator must reproduce the oracle's schedule exactly (same
// seed => identical interrupts, requeues, and start times) and its decision
// stream must pass the stream auditor with zero findings.
func TestFaultDifferentialSweep(t *testing.T) {
	days := 0.2
	if testing.Short() {
		days = 0.1
	}
	combos := []sim.Options{
		{Policy: sim.FCFS, Backfill: sim.NoBackfill},
		{Policy: sim.FCFS, Backfill: sim.EASY},
		{Policy: sim.SJF, Backfill: sim.Conservative},
		{Policy: sim.WFP3, Backfill: sim.Relaxed, RelaxFactor: 0.15},
		{Policy: sim.Fair, Backfill: sim.AdaptiveRelaxed, RelaxFactor: 0.15},
	}
	profiles := []*synth.Profile{synth.VerifyHPC(days), synth.VerifyVC(days)}
	for _, p := range profiles {
		p := p
		t.Run(p.Sys.Name, func(t *testing.T) {
			t.Parallel()
			tr := verifyTrace(t, p, 7)
			for name, cfg := range faultScenarios() {
				for _, opt := range combos {
					opt.Faults = cfg
					if err := Verify(tr, opt); err != nil {
						t.Errorf("%s under %s + %s: %v", name, opt.Policy, opt.Backfill, err)
					}
				}
			}
		})
	}
}

// TestFaultRunHasFaults guards the sweep against vacuity: the scenarios must
// actually interrupt attempts and drain capacity on the verification
// workload, otherwise the differential gate proves nothing.
func TestFaultRunHasFaults(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.2), 7)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY,
		Faults: faultScenarios()["mixed"]}
	var met obs.Metrics
	opt.Metrics = &met
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted == 0 || res.Requeued == 0 {
		t.Errorf("mixed scenario interrupted %d / requeued %d attempts; sweep is vacuous",
			res.Interrupted, res.Requeued)
	}
	if met.CapacityFaults == 0 {
		t.Error("mixed scenario applied no capacity faults; sweep is vacuous")
	}
	if res.WastedCoreSeconds <= 0 || res.GoodputCoreSeconds <= 0 {
		t.Errorf("goodput %v / wasted %v core-seconds; want both positive",
			res.GoodputCoreSeconds, res.WastedCoreSeconds)
	}
}

// streamHasFinding reports whether the report contains a finding whose
// detail mentions the given fragment.
func streamHasFinding(rep *AuditReport, fragment string) bool {
	for _, f := range rep.Findings {
		if strings.Contains(f.Detail, fragment) {
			return true
		}
	}
	return false
}

// TestAuditStreamRejectsDrainedCapacityRun pins the degraded-capacity
// conservation invariant: a stream in which a job starts on cores an outage
// drained (here: the restore event was dropped) must be rejected.
func TestAuditStreamRejectsDrainedCapacityRun(t *testing.T) {
	// 8 cores; job 0 runs before the outage, job 1 after it. The outage
	// window [200, 250) drains 4 idle cores and touches no job.
	tr := trace.New(trace.System{Name: "tamper", TotalCores: 8})
	tr.Jobs = []trace.Job{
		{ID: 0, Submit: 0, Run: 100, Walltime: 120, Procs: 6, VC: -1},
		{ID: 1, Submit: 300, Run: 100, Walltime: 120, Procs: 6, VC: -1},
	}
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY,
		Faults: &fault.Config{
			Outages:  []fault.Outage{{Part: 0, Start: 200, Duration: 50, Cores: 4}},
			Recovery: fault.RecoveryRequeue, RetryCap: 1,
		}}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(tr, opt, rec.Events, res).Err(); err != nil {
		t.Fatalf("clean fault stream must audit clean: %v", err)
	}

	tampered := make([]obs.Event, 0, len(rec.Events))
	for _, e := range rec.Events {
		if e.Kind == obs.FaultNodeUp {
			continue // the outage never heals: job 1 now starts on drained cores
		}
		tampered = append(tampered, e)
	}
	rep := Audit(tr, opt, tampered, res)
	if rep.OK() {
		t.Fatal("auditor accepted a job running on drained capacity")
	}
	if !streamHasFinding(rep, "drained capacity") {
		t.Errorf("want a drained-capacity finding, got %v", rep.Findings)
	}
}

// TestAuditStreamRejectsRequeuePastCap pins the retry-cap invariant: a
// stream showing more requeues than the cap allows must be rejected.
func TestAuditStreamRejectsRequeuePastCap(t *testing.T) {
	// One job, killed 10s into its first attempt, requeued once (cap 1).
	tr := trace.New(trace.System{Name: "tamper", TotalCores: 4})
	tr.Jobs = []trace.Job{{ID: 0, Submit: 0, Run: 100, Walltime: 120, Procs: 4, VC: -1}}
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY,
		Faults: &fault.Config{
			Kills:    []fault.JobKill{{Job: 0, After: 10}},
			Recovery: fault.RecoveryRequeue, RetryCap: 1,
		}}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(tr, opt, rec.Events, res).Err(); err != nil {
		t.Fatalf("clean fault stream must audit clean: %v", err)
	}
	if res.Requeued != 1 {
		t.Fatalf("scenario requeued %d times, want 1", res.Requeued)
	}

	// Splice a second interrupt/requeue/start cycle over the cap into the
	// stream: ... start@10, interrupt@20, requeue@20, start@20, complete@120.
	var tampered []obs.Event
	for _, e := range rec.Events {
		if e.Kind == obs.JobComplete {
			tampered = append(tampered,
				obs.Event{Kind: obs.FaultJobInterrupt, Time: 20, Job: 0, Part: 0, Procs: 4, Detail: 10},
				obs.Event{Kind: obs.FaultJobRequeue, Time: 20, Job: 0, Part: 0, Procs: 4, Detail: 100},
				obs.Event{Kind: obs.JobStart, Time: 20, Job: 0, Part: 0, Procs: 4, Detail: 20},
				obs.Event{Kind: obs.JobComplete, Time: 120, Job: 0, Part: 0, Procs: 4, Detail: e.Detail},
			)
			continue
		}
		tampered = append(tampered, e)
	}
	rep := Audit(tr, opt, tampered, res)
	if rep.OK() {
		t.Fatal("auditor accepted a requeue past the retry cap")
	}
	if !streamHasFinding(rep, "past the retry cap") {
		t.Errorf("want a retry-cap finding, got %v", rep.Findings)
	}
}

// TestAuditStreamRejectsFaultAccountingTamper: the goodput/wasted split
// replayed from the stream must match the result bit-exactly.
func TestAuditStreamRejectsFaultAccountingTamper(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.1), 3)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY,
		Faults: faultScenarios()["interrupt-checkpoint"]}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(tr, opt, rec.Events, res).Err(); err != nil {
		t.Fatalf("clean fault stream must audit clean: %v", err)
	}
	c := *res
	c.WastedCoreSeconds *= 1.001
	rep := Audit(tr, opt, rec.Events, &c)
	if rep.OK() {
		t.Fatal("auditor accepted tampered wasted core-seconds")
	}
}

// TestOutageKillEndsMakespan: an attempt an outage kills for good ends at
// the kill, not at its planned completion, so the makespan (and the
// utilization over it) stops there — the auditor's makespan is the last
// completion or interrupt in the stream.
func TestOutageKillEndsMakespan(t *testing.T) {
	tr := trace.New(trace.System{Name: "kill", TotalCores: 8})
	tr.Jobs = []trace.Job{{ID: 0, Submit: 0, Run: 100, Walltime: 120, Procs: 6, VC: -1}}
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY,
		Faults: &fault.Config{
			Outages:  []fault.Outage{{Part: 0, Start: 50, Duration: 10, Cores: 8}},
			Recovery: fault.RecoveryNone,
		}}
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultFailed != 1 || res.Makespan != 50 || res.Utilization != 0.75 {
		t.Fatalf("failed %d, makespan %v, utilization %v; want 1, 50, 0.75",
			res.FaultFailed, res.Makespan, res.Utilization)
	}
	if err := Verify(tr, opt); err != nil {
		t.Fatal(err)
	}
}
