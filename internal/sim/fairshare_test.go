package sim

import (
	"math"
	"testing"

	"crosssched/internal/trace"
)

func TestFairshareUsageDecay(t *testing.T) {
	f := NewFairshareState(3600) // 1h half-life
	f.Charge(1, 0, 1000)
	if got := f.Usage(1, 0); got != 1000 {
		t.Fatalf("usage at charge time %v", got)
	}
	if got := f.Usage(1, 3600); math.Abs(got-500) > 1e-9 {
		t.Fatalf("usage after one half-life %v want 500", got)
	}
	if got := f.Usage(1, 7200); math.Abs(got-250) > 1e-9 {
		t.Fatalf("usage after two half-lives %v want 250", got)
	}
	if f.Usage(99, 100) != 0 {
		t.Fatal("unknown user should have zero usage")
	}
}

func TestFairshareChargeAccumulates(t *testing.T) {
	f := NewFairshareState(3600)
	f.Charge(1, 0, 100)
	f.Charge(1, 3600, 100) // old 100 decayed to 50, plus 100
	if got := f.Usage(1, 3600); math.Abs(got-150) > 1e-9 {
		t.Fatalf("accumulated usage %v want 150", got)
	}
}

func TestFairshareDefaultHalfLife(t *testing.T) {
	f := NewFairshareState(0)
	if f.HalfLife != 86400 {
		t.Fatalf("default half-life %v want 86400", f.HalfLife)
	}
}

func TestFairPolicyPrefersLightUsers(t *testing.T) {
	// One core. Heavy user 0 submits two long jobs; light user 1 submits
	// one later. Under FCFS user 1 goes last; under Fair user 1 jumps
	// ahead of user 0's second job.
	jobs := []trace.Job{
		{Submit: 0, Run: 100, Walltime: 100, Procs: 1, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 1, User: 0},
		{Submit: 2, Run: 10, Walltime: 10, Procs: 1, User: 1},
	}
	fcfs, err := Run(mk(1, append([]trace.Job(nil), jobs...)),
		Options{Policy: FCFS, Backfill: NoBackfill})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := Run(mk(1, append([]trace.Job(nil), jobs...)),
		Options{Policy: Fair, Backfill: NoBackfill})
	if err != nil {
		t.Fatal(err)
	}
	if !(fcfs.Jobs[2].Wait > fcfs.Jobs[1].Wait) {
		t.Fatalf("FCFS should serve user 0's second job first: %v %v",
			fcfs.Jobs[1].Wait, fcfs.Jobs[2].Wait)
	}
	if !(fair.Jobs[2].Wait < fair.Jobs[1].Wait) {
		t.Fatalf("Fair should serve the light user first: job1 wait %v, job2 wait %v",
			fair.Jobs[1].Wait, fair.Jobs[2].Wait)
	}
}

func TestNewPoliciesScoreAndParse(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v failed: %v %v", p, got, err)
		}
	}
	// F2/F3 prefer the cheaper job (lower rt*procs-ish score)
	a := &pending{submit: 100, reqTime: 100, procs: 1}
	b := &pending{submit: 100, reqTime: 10000, procs: 64}
	for _, p := range []Policy{F1, F2, F3} {
		if p.score(a, 200) >= p.score(b, 200) {
			t.Fatalf("%v should score the small/short job lower", p)
		}
	}
}

func TestWalltimePredictorChangesPlanning(t *testing.T) {
	// Capacity 10. J0 holds 8 cores with a huge walltime overestimate
	// (runs 100s, requests 10000s). J1 (head, 10 cores) blocks. J2 (2
	// cores, 150s) wants to backfill: under user walltimes the shadow is
	// at 10000 so J2 backfills trivially; with accurate predictions the
	// shadow is at ~100 and J2 (ending at 152 > 100) must NOT backfill
	// under EASY.
	jobs := []trace.Job{
		{Submit: 0, Run: 100, Walltime: 10000, Procs: 8, User: 0},
		{Submit: 1, Run: 100, Walltime: 100, Procs: 10, User: 1},
		{Submit: 2, Run: 150, Walltime: 150, Procs: 2, User: 2},
	}
	userEst, err := Run(mk(10, append([]trace.Job(nil), jobs...)),
		Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	if userEst.Jobs[2].Wait != 0 {
		t.Fatalf("with loose walltimes J2 should backfill: wait %v", userEst.Jobs[2].Wait)
	}
	oracle := func(j trace.Job) float64 { return j.Run }
	pred, err := Run(mk(10, append([]trace.Job(nil), jobs...)),
		Options{Policy: FCFS, Backfill: EASY, WalltimePredictor: oracle})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Jobs[2].Wait == 0 {
		t.Fatal("with accurate predictions J2 must not delay the head")
	}
	// head starts exactly at 100 under the oracle
	if pred.Jobs[1].Wait != 99 {
		t.Fatalf("head wait %v want 99", pred.Jobs[1].Wait)
	}
}

func TestWalltimePredictorDoesNotKill(t *testing.T) {
	// Prediction is shorter than the true runtime; the job must still run
	// to completion (advisory estimate, not a limit).
	jobs := []trace.Job{
		{Submit: 0, Run: 100, Walltime: 0, Procs: 10, User: 0},
		{Submit: 1, Run: 10, Walltime: 0, Procs: 10, User: 1},
	}
	res, err := Run(mk(10, append([]trace.Job(nil), jobs...)),
		Options{Policy: FCFS, Backfill: EASY,
			WalltimePredictor: func(trace.Job) float64 { return 5 }})
	if err != nil {
		t.Fatal(err)
	}
	// J1 starts only when J0 actually ends at t=100, despite the 5s plan.
	if res.Jobs[1].Wait != 99 {
		t.Fatalf("wait %v want 99 (job must not be killed at prediction)", res.Jobs[1].Wait)
	}
}
