package rl

import (
	"context"
	"errors"
	"math"
	"testing"

	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

func trainTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := synth.Theta(3).Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFeatures(t *testing.T) {
	f := Features(100, 4, 10, 60)
	if f[4] != 1 {
		t.Fatal("bias feature missing")
	}
	if math.Abs(f[0]-math.Log1p(100)) > 1e-12 {
		t.Fatalf("runtime feature %v", f[0])
	}
	if math.Abs(f[2]-math.Log1p(50)) > 1e-12 {
		t.Fatalf("wait feature %v", f[2])
	}
	// negative wait clamps to zero
	if g := Features(100, 4, 60, 10); g[2] != 0 {
		t.Fatalf("negative wait not clamped: %v", g[2])
	}
	// tiny runtime floors at 1
	if g := Features(0, 1, 0, 0); g[0] != math.Log1p(1) {
		t.Fatalf("runtime floor broken: %v", g[0])
	}
}

func TestZeroPolicyEqualsFCFS(t *testing.T) {
	tr := trainTrace(t, 5)
	zero := &LinearPolicy{}
	learned, err := sim.Run(tr, zero.Options(sim.EASY))
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := sim.Run(tr, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	// zero weights score everything 0; ties break by submit = FCFS
	for i := range fcfs.Jobs {
		if fcfs.Jobs[i].Wait != learned.Jobs[i].Wait {
			t.Fatalf("zero policy diverges from FCFS at job %d", i)
		}
	}
}

func TestSJFWeightsBehaveLikeSJF(t *testing.T) {
	tr := trainTrace(t, 7)
	sjfLike := &LinearPolicy{W: [FeatureDim]float64{1, 0, 0, 0, 0}} // order by log runtime
	a, err := sim.Run(tr, sjfLike.Options(sim.NoBackfill))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(tr, sim.Options{Policy: sim.SJF, Backfill: sim.NoBackfill})
	if err != nil {
		t.Fatal(err)
	}
	// log is monotone, so ordering is identical
	if math.Abs(a.AvgBsld-b.AvgBsld) > 1e-9 {
		t.Fatalf("log-runtime policy bsld %v != SJF %v", a.AvgBsld, b.AvgBsld)
	}
}

func TestTrainImprovesOverFCFS(t *testing.T) {
	tr := trainTrace(t, 9)
	fcfs, err := sim.Run(tr, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	policy, history, err := Train(context.Background(), tr, TrainConfig{Iterations: 12, Population: 6, Seed: 1, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 13 {
		t.Fatalf("history length %d want 13", len(history))
	}
	finalBsld := history[len(history)-1]
	if finalBsld > fcfs.AvgBsld {
		t.Fatalf("trained policy bsld %v worse than FCFS %v", finalBsld, fcfs.AvgBsld)
	}
	// history is the best-so-far curve: must be non-increasing
	for i := 1; i < len(history); i++ {
		if history[i] > history[i-1]+1e-9 {
			t.Fatalf("best-so-far history increased at %d: %v", i, history)
		}
	}
	// the returned policy reproduces the reported fitness
	res, err := sim.Run(tr, policy.Options(sim.EASY))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AvgBsld-finalBsld) > 1e-9 {
		t.Fatalf("returned policy bsld %v != reported %v", res.AvgBsld, finalBsld)
	}
}

func TestTrainDeterministic(t *testing.T) {
	tr := trainTrace(t, 11)
	a, ha, err := Train(context.Background(), tr, TrainConfig{Iterations: 4, Population: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, hb, err := Train(context.Background(), tr, TrainConfig{Iterations: 4, Population: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.W != b.W {
		t.Fatal("same-seed training produced different weights")
	}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatal("same-seed training histories differ")
		}
	}
}

func TestTrainRejectsTiny(t *testing.T) {
	tr := trace.New(trace.System{Name: "T", TotalCores: 4})
	if _, _, err := Train(context.Background(), tr, TrainConfig{}); err == nil {
		t.Fatal("tiny trace accepted")
	}
}

// TestTrainGeneralizes: a policy trained on one seed should also beat FCFS
// on a different workload sample from the same system (weak generalization
// across seeds of the same distribution).
func TestTrainGeneralizes(t *testing.T) {
	train := trainTrace(t, 13)
	test := trainTrace(t, 14)
	policy, _, err := Train(context.Background(), train, TrainConfig{Iterations: 15, Population: 6, Seed: 3, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	learned, err := sim.Run(test, policy.Options(sim.EASY))
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := sim.Run(test, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	if learned.AvgBsld > fcfs.AvgBsld*1.1 {
		t.Fatalf("trained policy bsld %v much worse than FCFS %v on held-out workload",
			learned.AvgBsld, fcfs.AvgBsld)
	}
}

// TestTrainCancellation: a pre-canceled context aborts training before
// the first fitness evaluation with a wrapped context.Canceled.
func TestTrainCancellation(t *testing.T) {
	tr := trainTrace(t, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Train(ctx, tr, TrainConfig{Iterations: 2, Population: 2, Seed: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Train: want context.Canceled, got %v", err)
	}
	if _, err := Fitness(ctx, &LinearPolicy{}, tr, sim.EASY); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fitness: want context.Canceled, got %v", err)
	}
}
