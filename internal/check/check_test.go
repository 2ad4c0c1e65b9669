package check

import (
	"math"
	"testing"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// verifyTrace generates one verification workload, sized so the O(n²)
// oracle stays fast while queues still build up.
func verifyTrace(t testing.TB, p *synth.Profile, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := p.Generate(seed)
	if err != nil {
		t.Fatalf("generate %s: %v", p.Sys.Name, err)
	}
	if tr.Len() == 0 {
		t.Fatalf("generate %s: empty trace", p.Sys.Name)
	}
	// The generator fills Wait from its shadow scheduler; the simulator
	// ignores it, but clear it to prove nothing leaks through.
	for i := range tr.Jobs {
		tr.Jobs[i].Wait = -1
	}
	return tr
}

// TestDifferentialSweep is the main differential gate: every policy x
// backfill combination on three verification workloads must match the
// oracle's schedule exactly and pass the auditor with zero findings.
func TestDifferentialSweep(t *testing.T) {
	days := 0.35
	if testing.Short() {
		days = 0.15
	}
	for _, p := range synth.VerifyProfiles(days) {
		p := p
		t.Run(p.Sys.Name, func(t *testing.T) {
			t.Parallel()
			tr := verifyTrace(t, p, 7)
			t.Logf("%s: %d jobs", p.Sys.Name, tr.Len())
			for _, opt := range Combos(0.15) {
				if err := Verify(tr, opt); err != nil {
					t.Errorf("%s + %s: %v", opt.Policy, opt.Backfill, err)
				}
			}
		})
	}
}

// TestDifferentialOptionVariants covers the option axes the sweep holds
// fixed: perfect-estimate planning, advisory walltime predictions, a custom
// learned score, an explicit adaptive normalization, and fairshare decay.
func TestDifferentialOptionVariants(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.25), 11)
	variants := []struct {
		name string
		opt  sim.Options
	}{
		{"oracle-runtime", sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, UseActualRuntime: true}},
		{"predictor", sim.Options{Policy: sim.FCFS, Backfill: sim.EASY,
			WalltimePredictor: func(j trace.Job) float64 { return j.Run*1.2 + 60 }}},
		{"custom-score", sim.Options{Backfill: sim.EASY,
			CustomScore: func(reqTime float64, procs int, submit, now float64) float64 {
				return reqTime * float64(procs)
			}}},
		{"adaptive-fixed-maxq", sim.Options{Policy: sim.SJF, Backfill: sim.AdaptiveRelaxed,
			RelaxFactor: 0.2, MaxQueueLen: 12}},
		{"fair-short-halflife", sim.Options{Policy: sim.Fair, Backfill: sim.Relaxed,
			FairshareHalfLife: 3600}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			if err := Verify(tr, v.opt); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOracleMatchesOnHandBuiltTrace pins the oracle on a schedule small
// enough to verify by hand: 4 cores, FCFS+EASY. Job 2 (1 core, short) must
// backfill ahead of blocked job 1 (4 cores) without delaying its promise.
func TestOracleMatchesOnHandBuiltTrace(t *testing.T) {
	tr := trace.New(trace.System{Name: "hand", TotalCores: 4})
	tr.Jobs = []trace.Job{
		{ID: 0, Submit: 0, Run: 100, Walltime: 120, Procs: 3, VC: -1},
		{ID: 1, Submit: 10, Run: 50, Walltime: 60, Procs: 4, VC: -1},
		{ID: 2, Submit: 20, Run: 30, Walltime: 40, Procs: 1, VC: -1},
	}
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}
	ref, err := Oracle(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 is promised job 0's planned end (t=120) but starts at its real
	// end (t=100); job 2 backfills at submission because 20+40 <= 120.
	wantWaits := []float64{0, 90, 0}
	for i, w := range wantWaits {
		if ref.Jobs[i].Wait != w {
			t.Errorf("job %d wait = %v, want %v", i, ref.Jobs[i].Wait, w)
		}
	}
	if ref.Backfilled != 1 {
		t.Errorf("backfilled = %d, want 1", ref.Backfilled)
	}
	if ref.Violations != 0 {
		t.Errorf("violations = %d, want 0", ref.Violations)
	}
	if err := Verify(tr, opt); err != nil {
		t.Error(err)
	}
}

// TestAuditCleanRun asserts a real simulator run audits clean and the
// report carries evidence counts.
func TestAuditCleanRun(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyVC(0.2), 3)
	rec := &obs.Recorder{}
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, Observer: rec}
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := Audit(tr, opt, rec.Events, res)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.JobsChecked != tr.Len() || rep.EventsChecked == 0 {
		t.Errorf("report evidence: jobs %d events %d", rep.JobsChecked, rep.EventsChecked)
	}
}

// TestAuditDetectsCorruption proves the auditor has teeth: tampering with a
// clean result in characteristic ways must produce the matching finding.
func TestAuditDetectsCorruption(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.2), 5)
	rec := &obs.Recorder{}
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, Observer: rec}
	clean, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(tr, opt, rec.Events, clean).Err(); err != nil {
		t.Fatalf("clean run must audit clean: %v", err)
	}

	// Find a job that actually waited, so pulling its start earlier
	// overlaps it with whatever was occupying the machine.
	victim := -1
	for i := range clean.Jobs {
		if clean.Jobs[i].Wait > 60 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no waiting job in verification workload; increase load")
	}

	corrupt := func(mutate func(r *sim.Result)) *AuditReport {
		c := *clean
		c.Jobs = append([]trace.Job(nil), clean.Jobs...)
		c.PromisedStart = append([]float64(nil), clean.PromisedStart...)
		mutate(&c)
		return Audit(tr, opt, rec.Events, &c)
	}

	cases := []struct {
		name      string
		invariant string
		mutate    func(r *sim.Result)
	}{
		// A Result whose wait disagrees with the recorded start is a
		// lifecycle finding: the auditor reads the start from the stream.
		{"start-before-submit", "lifecycle", func(r *sim.Result) { r.Jobs[victim].Wait = -5 }},
		{"double-booked", "lifecycle", func(r *sim.Result) { r.Jobs[victim].Wait = 0 }},
		{"violation-miscount", "promise", func(r *sim.Result) { r.Violations += 3 }},
		{"wrong-avg-wait", "metrics", func(r *sim.Result) { r.AvgWait *= 1.5 }},
		{"wrong-utilization", "metrics", func(r *sim.Result) { r.Utilization += 0.05 }},
		{"wrong-max-queue", "metrics", func(r *sim.Result) { r.MaxQueueLen++ }},
		{"altered-run", "shape", func(r *sim.Result) { r.Jobs[victim].Run++ }},
		// The metric checks are exact: one ulp off is a finding.
		{"avg-bsld-one-ulp", "metrics", func(r *sim.Result) { r.AvgBsld = math.Nextafter(r.AvgBsld, math.Inf(1)) }},
		{"makespan-one-ulp", "metrics", func(r *sim.Result) { r.Makespan = math.Nextafter(r.Makespan, math.Inf(1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := corrupt(tc.mutate)
			if rep.OK() {
				t.Fatalf("auditor accepted corrupted result (%s)", tc.name)
			}
			found := false
			for _, f := range rep.Findings {
				if f.Invariant == tc.invariant {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("want a %q finding, got %v", tc.invariant, rep.Findings)
			}
		})
	}
}

// TestAuditCatchesAllowanceAbuse: under relaxed backfilling a promised job
// that slips past promise + allowance must raise the allowance invariant.
// The input is a genuine run under a looser relax factor than the options
// the audit is told about, so the stream and the Result agree and only
// the slip bound can object.
func TestAuditCatchesAllowanceAbuse(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.2), 9)
	rec := &obs.Recorder{}
	loose := sim.Options{Policy: sim.FCFS, Backfill: sim.Relaxed, RelaxFactor: 1, Observer: rec}
	res, err := sim.Run(tr, loose)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(tr, loose, rec.Events, res).Err(); err != nil {
		t.Fatalf("run must audit clean under its own options: %v", err)
	}
	claimed := loose
	claimed.RelaxFactor = 0.1
	rep := Audit(tr, claimed, rec.Events, res)
	if rep.OK() {
		t.Fatal("no job slipped past a 0.1 allowance; the workload cannot show the bound")
	}
	for _, f := range rep.Findings {
		if f.Invariant != "allowance" {
			t.Errorf("want only allowance findings, got %v", f)
		}
	}
}

// TestPartitionContract pins the partition mapping shared with the
// simulator: valid VCs map to themselves, everything else hashes by user.
func TestPartitionContract(t *testing.T) {
	if got := Partition(trace.Job{VC: 2, User: 9}, 3); got != 2 {
		t.Errorf("VC 2 of 3 -> %d, want 2", got)
	}
	if got := Partition(trace.Job{VC: -1, User: 9}, 3); got != 0 {
		t.Errorf("user 9 of 3 parts -> %d, want 0", got)
	}
	if got := Partition(trace.Job{VC: 7, User: 1}, 3); got != 1 {
		t.Errorf("out-of-range VC must hash by user, got %d", got)
	}
	caps := PartitionCapacities(trace.System{TotalCores: 10, VirtualClusters: 3})
	if caps[0] != 4 || caps[1] != 3 || caps[2] != 3 {
		t.Errorf("capacities = %v, want [4 3 3]", caps)
	}
}
