package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"crosssched/internal/dist"
	"crosssched/internal/trace"
)

// mk builds a trace on a single-partition system with the given capacity.
func mk(capacity int, jobs []trace.Job) *trace.Trace {
	t := trace.New(trace.System{Name: "T", Kind: trace.HPC, TotalCores: capacity})
	t.Jobs = jobs
	t.SortBySubmit()
	for i := range t.Jobs {
		if t.Jobs[i].VC == 0 {
			t.Jobs[i].VC = -1
		}
	}
	return t
}

func TestFCFSSequential(t *testing.T) {
	// capacity 10; two 10-core jobs must run back to back
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 10, User: 0},
		{Submit: 1, Run: 50, Walltime: 50, Procs: 10, User: 1},
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Wait != 0 {
		t.Fatalf("job 0 wait %v want 0", res.Jobs[0].Wait)
	}
	if res.Jobs[1].Wait != 99 {
		t.Fatalf("job 1 wait %v want 99", res.Jobs[1].Wait)
	}
	if res.Makespan != 150 {
		t.Fatalf("makespan %v want 150", res.Makespan)
	}
}

func TestParallelWhenFits(t *testing.T) {
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 5, User: 0},
		{Submit: 0, Run: 100, Walltime: 100, Procs: 5, User: 1},
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range res.Jobs {
		if j.Wait != 0 {
			t.Fatalf("job %d wait %v want 0", i, j.Wait)
		}
	}
	if res.Makespan != 100 {
		t.Fatalf("makespan %v", res.Makespan)
	}
}

func TestEASYBackfillFillsHole(t *testing.T) {
	// J0 uses 8/10 cores until t=100. J1 (head, 10 cores) must wait until
	// 100. J2 (2 cores, 50s) fits the hole and ends before the shadow.
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 8, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 10, User: 1},
		{Submit: 2, Run: 50, Walltime: 50, Procs: 2, User: 2},
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[2].Wait != 0 {
		t.Fatalf("backfill job wait %v want 0", res.Jobs[2].Wait)
	}
	if res.Jobs[1].Wait != 99 {
		t.Fatalf("head job wait %v want 99", res.Jobs[1].Wait)
	}
	if res.Backfilled != 1 {
		t.Fatalf("backfilled %d want 1", res.Backfilled)
	}
	if res.Violations != 0 {
		t.Fatalf("EASY produced %d violations", res.Violations)
	}
}

func TestNoBackfillHolds(t *testing.T) {
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 8, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 10, User: 1},
		{Submit: 2, Run: 50, Walltime: 50, Procs: 2, User: 2},
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: NoBackfill})
	if err != nil {
		t.Fatal(err)
	}
	// J2 must wait behind J1 under strict FCFS without backfilling:
	// J1 takes all 10 cores at t=100 and finishes at 200, so J2 starts
	// at 200 (wait 198).
	if res.Jobs[2].Wait != 198 {
		t.Fatalf("no-backfill J2 wait %v want 198", res.Jobs[2].Wait)
	}
	if res.Backfilled != 0 {
		t.Fatalf("backfilled %d want 0", res.Backfilled)
	}
}

func TestEASYDoesNotDelayHead(t *testing.T) {
	// A long backfill candidate that would delay the head must not start.
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 8, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 10, User: 1},
		{Submit: 2, Run: 500, Walltime: 500, Procs: 2, User: 2}, // too long
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Wait != 99 {
		t.Fatalf("head delayed: wait %v want 99", res.Jobs[1].Wait)
	}
	if res.Jobs[2].Wait <= 98 {
		t.Fatalf("long candidate backfilled: wait %v", res.Jobs[2].Wait)
	}
	if res.Violations != 0 {
		t.Fatal("EASY must not violate")
	}
}

func TestRelaxedBackfillAllowsBoundedDelay(t *testing.T) {
	// Head expected wait is ~99s; relaxed 50% allows candidates ending
	// up to ~49.5s past the shadow.
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 8, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 10, User: 1},
		{Submit: 2, Run: 130, Walltime: 130, Procs: 2, User: 2}, // ends at 132 < 100+49.5... no
	})
	// ends at t=2+130=132; shadow=100; allowance=0.5*(100-1)=49.5 -> 132 <= 149.5 OK
	res, err := Run(tr, Options{Policy: FCFS, Backfill: Relaxed, RelaxFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[2].Wait != 0 {
		t.Fatalf("relaxed candidate not backfilled: wait %v", res.Jobs[2].Wait)
	}
	// head now starts at 132 instead of 100 -> violation recorded
	if res.Violations != 1 {
		t.Fatalf("violations %d want 1", res.Violations)
	}
	if math.Abs(res.ViolationDelay-32) > 1e-6 {
		t.Fatalf("violation delay %v want 32", res.ViolationDelay)
	}
	if res.Jobs[1].Wait != 131 {
		t.Fatalf("head wait %v want 131", res.Jobs[1].Wait)
	}
}

func TestRelaxedRespectsBound(t *testing.T) {
	// candidate ends far past the allowance -> must NOT backfill
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 8, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 10, User: 1},
		{Submit: 2, Run: 400, Walltime: 400, Procs: 2, User: 2},
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: Relaxed, RelaxFactor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[2].Wait == 0 {
		t.Fatal("overlong candidate was backfilled")
	}
	if res.Violations != 0 {
		t.Fatalf("violations %d want 0", res.Violations)
	}
}

func TestAdaptiveScalesWithQueue(t *testing.T) {
	// With MaxQueueLen large, the adaptive factor ~ 0, behaving like EASY:
	// the moderately-long candidate must not backfill.
	jobs := []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 8, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 10, User: 1},
		{Submit: 2, Run: 130, Walltime: 130, Procs: 2, User: 2},
	}
	res, err := Run(mk(10, append([]trace.Job(nil), jobs...)),
		Options{Policy: FCFS, Backfill: AdaptiveRelaxed, RelaxFactor: 0.5, MaxQueueLen: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[2].Wait == 0 {
		t.Fatal("adaptive with tiny factor should not have backfilled")
	}
	// With MaxQueueLen equal to the actual queue (2), factor is full 0.5:
	// behaves like plain relaxed and backfills.
	res2, err := Run(mk(10, append([]trace.Job(nil), jobs...)),
		Options{Policy: FCFS, Backfill: AdaptiveRelaxed, RelaxFactor: 0.5, MaxQueueLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs[2].Wait != 0 {
		t.Fatal("adaptive with full factor should have backfilled")
	}
}

func TestConservativeBackfill(t *testing.T) {
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 8, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 10, User: 1},
		{Submit: 2, Run: 50, Walltime: 50, Procs: 2, User: 2},
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: Conservative})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[2].Wait != 0 {
		t.Fatalf("conservative should backfill the short job: wait %v", res.Jobs[2].Wait)
	}
	if res.Jobs[1].Wait != 99 {
		t.Fatalf("head wait %v want 99", res.Jobs[1].Wait)
	}
}

func TestSJFOrder(t *testing.T) {
	// one core; three jobs arrive together; SJF runs shortest first
	tr := mk(1, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 1, User: 0},
		{Submit: 0.1, Run: 10, Walltime: 10, Procs: 1, User: 1},
		{Submit: 0.2, Run: 1, Walltime: 1, Procs: 1, User: 2},
	})
	res, err := Run(tr, Options{Policy: SJF, Backfill: NoBackfill})
	if err != nil {
		t.Fatal(err)
	}
	// J0 starts immediately (empty queue). After it ends at 100, SJF picks
	// J2 (run 1) then J1 (run 10).
	if res.Jobs[2].Wait >= res.Jobs[1].Wait {
		t.Fatalf("SJF order wrong: waits %v %v", res.Jobs[1].Wait, res.Jobs[2].Wait)
	}
}

func TestLJFOrder(t *testing.T) {
	tr := mk(1, []trace.Job{
		{Submit: 0, Run: 5, Walltime: 5, Procs: 1, User: 0},
		{Submit: 0.1, Run: 10, Walltime: 10, Procs: 1, User: 1},
		{Submit: 0.2, Run: 100, Walltime: 100, Procs: 1, User: 2},
	})
	res, err := Run(tr, Options{Policy: LJF, Backfill: NoBackfill})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[2].Wait >= res.Jobs[1].Wait {
		t.Fatalf("LJF order wrong: long job should go first")
	}
}

func TestWalltimeTruncation(t *testing.T) {
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 1000, Walltime: 100, Procs: 10, User: 0},
		{Submit: 1, Run: 10, Walltime: 10, Procs: 10, User: 1},
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	// job 0 is killed at walltime 100, so job 1 starts at 100
	if res.Jobs[1].Wait != 99 {
		t.Fatalf("wait %v want 99 (walltime kill)", res.Jobs[1].Wait)
	}
}

func TestVirtualClusterIsolation(t *testing.T) {
	// 2 VCs of 5 cores each. VC0 is busy; a VC1 job must not help VC0's
	// queue, and vice versa — the Philly pathology.
	tr := trace.New(trace.System{Name: "P", Kind: trace.DL, TotalCores: 10, VirtualClusters: 2})
	tr.Jobs = []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 5, User: 0, VC: 0},
		{Submit: 1, Run: 10, Walltime: 10, Procs: 5, User: 1, VC: 0}, // must wait
		{Submit: 2, Run: 10, Walltime: 10, Procs: 5, User: 2, VC: 1}, // free VC
	}
	tr.SortBySubmit()
	res, err := Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Wait != 99 {
		t.Fatalf("VC0 job wait %v want 99", res.Jobs[1].Wait)
	}
	if res.Jobs[2].Wait != 0 {
		t.Fatalf("VC1 job wait %v want 0", res.Jobs[2].Wait)
	}
}

func TestJobLargerThanPartitionRejected(t *testing.T) {
	tr := trace.New(trace.System{Name: "P", Kind: trace.DL, TotalCores: 10, VirtualClusters: 2})
	tr.Jobs = []trace.Job{{Submit: 0, Run: 1, Walltime: 1, Procs: 8, User: 0, VC: 0}}
	if _, err := Run(tr, Options{}); err == nil {
		t.Fatal("job larger than its partition accepted")
	}
}

func TestMetricsAggregation(t *testing.T) {
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 10, User: 0},
		{Submit: 0, Run: 100, Walltime: 100, Procs: 10, User: 1},
	})
	res, err := Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AvgWait-50) > 1e-9 {
		t.Fatalf("avg wait %v want 50", res.AvgWait)
	}
	// bsld: job0 = 1, job1 = (100+100)/100 = 2 -> avg 1.5
	if math.Abs(res.AvgBsld-1.5) > 1e-9 {
		t.Fatalf("avg bsld %v want 1.5", res.AvgBsld)
	}
	// 10 cores busy for 200s of 200s makespan -> util 1.0
	if math.Abs(res.Utilization-1) > 1e-9 {
		t.Fatalf("utilization %v want 1", res.Utilization)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := trace.New(trace.System{Name: "E", TotalCores: 4})
	res, err := Run(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgWait != 0 || res.Makespan != 0 || len(res.Jobs) != 0 {
		t.Fatalf("empty trace result wrong: %+v", res)
	}
}

func TestInvalidTraceRejected(t *testing.T) {
	tr := mk(10, []trace.Job{{Submit: 0, Run: 1, Procs: 0, User: 0}})
	if _, err := Run(tr, Options{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

// TestNonFiniteTimesRejected feeds traces whose submit, wait, run or
// walltime is NaN or infinite through every reader and through Run and
// RunStream on a hand-built trace: each must return an error, never panic.
// A NaN or infinite run or walltime used to reach the simulator and panic
// in AvailSet.Remove; a NaN submit averaged into a NaN wait.
func TestNonFiniteTimesRejected(t *testing.T) {
	const header = "; MaxProcs: 8\n1 0.00 0.00 10.00 2 -1 -1 2 12.00 -1 1 1 -1 -1 -1 -1 -1 -1\n"
	for _, c := range []struct {
		field string
		val   string
	}{
		{"submit", "NaN"}, {"submit", "+Inf"},
		{"wait", "NaN"}, {"wait", "Inf"}, {"wait", "-Inf"},
		{"run", "NaN"}, {"run", "inf"},
		{"walltime", "nan"}, {"walltime", "+Inf"},
	} {
		t.Run(c.field+"="+c.val, func(t *testing.T) {
			swf := map[string]string{"submit": "1.00", "wait": "0.00", "run": "5.00", "walltime": "6.00"}
			swf[c.field] = c.val
			line := fmt.Sprintf("2 %s %s %s 2 -1 -1 2 %s -1 1 1 -1 -1 -1 -1 -1 -1\n",
				swf["submit"], swf["wait"], swf["run"], swf["walltime"])
			wantLine := "swf line 3: non-finite " + c.field
			if _, err := trace.ReadSWF(strings.NewReader(header + line)); err == nil || !strings.Contains(err.Error(), wantLine) {
				t.Errorf("ReadSWF: got %v, want %q", err, wantLine)
			}
			st, err := trace.NewSWFStream(strings.NewReader(header + line))
			if err == nil {
				_, err = trace.Collect(st)
			}
			if err == nil || !strings.Contains(err.Error(), wantLine) {
				t.Errorf("SWFStream: got %v, want %q", err, wantLine)
			}
			csvText := fmt.Sprintf("id,user,submit,wait,run,walltime,procs,vc,status\n0,0,0,0,10,12,2,-1,Passed\n1,0,%s,%s,%s,%s,2,-1,Passed\n",
				swf["submit"], swf["wait"], swf["run"], swf["walltime"])
			wantRow := "csv row 3: non-finite " + c.field
			if _, err := trace.ReadCSV(strings.NewReader(csvText), trace.System{TotalCores: 8}); err == nil || !strings.Contains(err.Error(), wantRow) {
				t.Errorf("ReadCSV: got %v, want %q", err, wantRow)
			}
			if _, err := trace.Collect(trace.NewCSVStream(strings.NewReader(csvText), trace.System{TotalCores: 8})); err == nil || !strings.Contains(err.Error(), wantRow) {
				t.Errorf("CSVStream: got %v, want %q", err, wantRow)
			}

			// The same job handed to the simulator directly.
			v, err := strconv.ParseFloat(c.val, 64)
			if err != nil {
				t.Fatal(err)
			}
			bad := trace.Job{Submit: 1, Run: 5, Walltime: 6, Procs: 2}
			*map[string]*float64{"submit": &bad.Submit, "wait": &bad.Wait, "run": &bad.Run, "walltime": &bad.Walltime}[c.field] = v
			jobs := []trace.Job{{Submit: 0, Run: 10, Walltime: 12, Procs: 2, VC: -1}, bad}
			tr := trace.New(trace.System{Name: "T", TotalCores: 8})
			tr.Jobs = jobs
			tr.Jobs[1].ID, tr.Jobs[1].VC = 1, -1
			wantSim := "non-finite " + c.field
			if _, err := Run(tr, Options{Policy: FCFS, Backfill: EASY}); err == nil || !strings.Contains(err.Error(), wantSim) {
				t.Errorf("Run: got %v, want %q", err, wantSim)
			}
			if _, err := RunStream(trace.NewSliceStream(tr), Options{Policy: FCFS, Backfill: EASY}, nil); err == nil || !strings.Contains(err.Error(), wantSim) {
				t.Errorf("RunStream: got %v, want %q", err, wantSim)
			}
		})
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	tr := mk(10, []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 10, User: 0, Wait: -1},
		{Submit: 1, Run: 50, Walltime: 50, Procs: 10, User: 1, Wait: -1},
	})
	if _, err := Run(tr, Options{Policy: FCFS, Backfill: EASY}); err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[1].Wait != -1 {
		t.Fatal("input trace mutated")
	}
}

// randomTrace generates a busy random workload for invariant testing.
func randomTrace(seed uint64, n, capacity int) *trace.Trace {
	r := dist.NewRNG(seed)
	tr := trace.New(trace.System{Name: "R", Kind: trace.HPC, TotalCores: capacity})
	t := 0.0
	for i := 0; i < n; i++ {
		t += dist.Exponential{Rate: 0.05}.Sample(r)
		run := dist.LogNormalFromMedian(60, 1.2).Sample(r)
		procs := r.Intn(capacity/2) + 1
		wall := run * (1 + r.Float64())
		tr.Jobs = append(tr.Jobs, trace.Job{
			Submit: t, Run: run, Walltime: wall, Procs: procs,
			User: r.Intn(8), VC: -1, Wait: -1,
		})
	}
	tr.SortBySubmit()
	return tr
}

// TestInvariantsAcrossConfigs drives every policy x backfill combination on
// a random workload and checks the global invariants: every job starts at
// or after submission, EASY/none/conservative never record violations, and
// utilization stays within [0, 1].
func TestInvariantsAcrossConfigs(t *testing.T) {
	tr := randomTrace(99, 300, 64)
	policies := []Policy{FCFS, SJF, LJF, SAF, WFP3, F1}
	backfills := []BackfillKind{NoBackfill, EASY, Conservative, Relaxed, AdaptiveRelaxed}
	for _, pol := range policies {
		for _, bf := range backfills {
			res, err := Run(tr, Options{Policy: pol, Backfill: bf, RelaxFactor: 0.1})
			if err != nil {
				t.Fatalf("%v/%v: %v", pol, bf, err)
			}
			for i, j := range res.Jobs {
				if j.Wait < 0 {
					t.Fatalf("%v/%v: job %d negative wait %v", pol, bf, i, j.Wait)
				}
			}
			if res.Utilization < 0 || res.Utilization > 1+1e-9 {
				t.Fatalf("%v/%v: utilization %v", pol, bf, res.Utilization)
			}
			// Promise-keeping guarantees hold for FCFS, where the head
			// order is stable. Dynamic policies may legitimately reorder
			// a previously promised job behind a newcomer.
			if bf == NoBackfill && res.Violations != 0 {
				t.Fatalf("%v/%v: %d violations, want 0", pol, bf, res.Violations)
			}
			if pol == FCFS && (bf == EASY || bf == Conservative) && res.Violations != 0 {
				t.Fatalf("%v/%v: %d violations, want 0", pol, bf, res.Violations)
			}
			if res.MaxQueueLen < 0 {
				t.Fatalf("%v/%v: bad max queue", pol, bf)
			}
		}
	}
}

// TestBackfillImprovesWait checks the qualitative claim backfilling is
// built on: EASY should not worsen (and typically improves) average wait
// over no backfilling for FCFS on a congested workload.
func TestBackfillImprovesWait(t *testing.T) {
	tr := randomTrace(7, 400, 32)
	plain, err := Run(tr, Options{Policy: FCFS, Backfill: NoBackfill})
	if err != nil {
		t.Fatal(err)
	}
	easy, err := Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	if easy.AvgWait > plain.AvgWait*1.05 {
		t.Fatalf("EASY wait %v much worse than none %v", easy.AvgWait, plain.AvgWait)
	}
	if easy.Backfilled == 0 {
		t.Fatal("EASY never backfilled on a congested workload")
	}
}

func TestPolicyAndBackfillParsing(t *testing.T) {
	for _, p := range []Policy{FCFS, SJF, LJF, SAF, WFP3, F1} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("policy round trip %v failed", p)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	for _, b := range []BackfillKind{NoBackfill, EASY, Conservative, Relaxed, AdaptiveRelaxed} {
		got, err := ParseBackfill(b.String())
		if err != nil || got != b {
			t.Fatalf("backfill round trip %v failed", b)
		}
	}
	if _, err := ParseBackfill("bogus"); err == nil {
		t.Fatal("bogus backfill accepted")
	}
}

func TestDeterminism(t *testing.T) {
	tr := randomTrace(5, 200, 32)
	a, err := Run(tr, Options{Policy: WFP3, Backfill: Relaxed, RelaxFactor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, Options{Policy: WFP3, Backfill: Relaxed, RelaxFactor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Wait != b.Jobs[i].Wait {
			t.Fatalf("nondeterministic wait at job %d", i)
		}
	}
	if a.Violations != b.Violations || a.Backfilled != b.Backfilled {
		t.Fatal("nondeterministic counters")
	}
}
