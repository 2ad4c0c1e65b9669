package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

var cachedTrace *trace.Trace

func thetaTrace(t *testing.T) *trace.Trace {
	t.Helper()
	if cachedTrace != nil {
		return cachedTrace
	}
	p := synth.Theta(8)
	tr, err := p.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	cachedTrace = tr
	return tr
}

func TestPolicyMatrix(t *testing.T) {
	tr := thetaTrace(t)
	cells, err := PolicyMatrix(context.Background(), tr,
		[]sim.Policy{sim.FCFS, sim.SJF, sim.Fair},
		[]sim.BackfillKind{sim.NoBackfill, sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells %d want 6", len(cells))
	}
	for _, c := range cells {
		if c.Util <= 0 || c.Util > 1 {
			t.Fatalf("%v/%v util %v", c.Policy, c.Backfill, c.Util)
		}
		if c.AvgWait < 0 || c.AvgBsld < 1 {
			t.Fatalf("%v/%v wait %v bsld %v", c.Policy, c.Backfill, c.AvgWait, c.AvgBsld)
		}
	}
	// EASY should backfill at least once under FCFS on a congested trace.
	var fcfsEasy, fcfsNone *Cell
	for i := range cells {
		if cells[i].Policy == sim.FCFS {
			if cells[i].Backfill == sim.EASY {
				fcfsEasy = &cells[i]
			} else if cells[i].Backfill == sim.NoBackfill {
				fcfsNone = &cells[i]
			}
		}
	}
	if fcfsEasy.Backfill2 == 0 {
		t.Fatal("EASY never backfilled")
	}
	if fcfsEasy.AvgWait > fcfsNone.AvgWait*1.05 {
		t.Fatalf("EASY wait %v much worse than none %v", fcfsEasy.AvgWait, fcfsNone.AvgWait)
	}
	out := RenderPolicyMatrix("Theta", cells)
	if !strings.Contains(out, "FCFS") || !strings.Contains(out, "easy") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

func TestRelaxFactorSweep(t *testing.T) {
	tr := thetaTrace(t)
	pts, err := RelaxFactorSweep(context.Background(), tr, []float64{0.05, 0.1, 0.2, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points %d", len(pts))
	}
	for _, p := range pts {
		if p.RelaxedUtil <= 0 || p.AdaptiveUtil <= 0 {
			t.Fatalf("factor %v: zero util", p.Factor)
		}
		if p.RelaxedWait < 0 || p.AdaptiveWait < 0 {
			t.Fatalf("factor %v: negative wait", p.Factor)
		}
	}
	// The paper's operating point is 10%; there adaptive must not exceed
	// relaxed violations. (At extreme factors the divergent schedules make
	// the comparison noisy, so we don't assert it pointwise everywhere.)
	if pts[1].AdaptiveViol > pts[1].RelaxedViol {
		t.Errorf("factor 0.1: adaptive violations %d exceed relaxed %d",
			pts[1].AdaptiveViol, pts[1].RelaxedViol)
	}
	out := RenderSweep("Theta", pts)
	if !strings.Contains(out, "0.05") {
		t.Fatalf("render missing factors:\n%s", out)
	}
}

// TestLast2PredictionsNeverReadOwnRuntime is the regression test for the
// oracle leak: a job's Last2 prediction must not depend on that job's own
// runtime in any way. Perturbing job k's Run may change predictions for
// LATER jobs (it enters the history) but never job k's own.
func TestLast2PredictionsNeverReadOwnRuntime(t *testing.T) {
	tr := thetaTrace(t)
	base := last2Predictions(tr)
	for k := 0; k < tr.Len(); k += 17 {
		cp := *tr
		cp.Jobs = append([]trace.Job(nil), tr.Jobs...)
		cp.Jobs[k].Run = cp.Jobs[k].Run*3 + 1000
		perturbed := last2Predictions(&cp)
		if got, want := perturbed[cp.Jobs[k].ID], base[tr.Jobs[k].ID]; got != want {
			t.Fatalf("job %d's prediction %v changed to %v when its own runtime changed — oracle leak",
				tr.Jobs[k].ID, want, got)
		}
	}
}

// TestLast2PredictionsColdStart pins the fallback chain for jobs with no
// requested walltime: the queue default before anything is observed, then
// the running mean of observed runtimes, and the user's own history once
// one exists.
func TestLast2PredictionsColdStart(t *testing.T) {
	tr := trace.New(trace.System{Name: "T", TotalCores: 64})
	tr.Jobs = []trace.Job{
		{ID: 1, User: 1, Submit: 0, Run: 100, Procs: 1},  // nothing observed yet
		{ID: 2, User: 2, Submit: 10, Run: 300, Procs: 1}, // mean of {100}
		{ID: 3, User: 1, Submit: 20, Run: 50, Procs: 1},  // user 1's Last2 history
	}
	preds := last2Predictions(tr)
	if preds[1] != defaultColdStartEstimate {
		t.Fatalf("first cold-start prediction %v, want queue default %v", preds[1], float64(defaultColdStartEstimate))
	}
	if preds[2] != 100 {
		t.Fatalf("second cold-start prediction %v, want running mean 100", preds[2])
	}
	if preds[3] != 100 {
		t.Fatalf("history prediction %v, want user 1's last runtime 100", preds[3])
	}
}

func TestPredictionBackfill(t *testing.T) {
	tr := thetaTrace(t)
	res, err := PredictionBackfill(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]sim.Result{
		"user": res.UserEstimates, "last2": res.Last2, "oracle": res.Oracle,
	} {
		if r.Utilization <= 0 || r.AvgWait < 0 {
			t.Fatalf("%s: degenerate result %+v", name, r)
		}
	}
	// The oracle can plan tighter than user walltime overestimates, so it
	// should backfill at least as effectively (not strictly required to
	// be better on wait, but must not be wildly worse).
	if res.Oracle.AvgWait > res.UserEstimates.AvgWait*1.5 {
		t.Fatalf("oracle wait %v wildly worse than user estimates %v",
			res.Oracle.AvgWait, res.UserEstimates.AvgWait)
	}
	out := res.Render()
	for _, want := range []string{"user walltimes", "Last2 predicted", "oracle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentsCancellation: a pre-canceled context must abort every
// experiment driver with a wrapped context.Canceled instead of running
// the full study.
func TestExperimentsCancellation(t *testing.T) {
	tr := thetaTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PolicyMatrix(ctx, tr,
		[]sim.Policy{sim.FCFS}, []sim.BackfillKind{sim.EASY}); !errors.Is(err, context.Canceled) {
		t.Fatalf("PolicyMatrix: want context.Canceled, got %v", err)
	}
	if _, err := RelaxFactorSweep(ctx, tr, []float64{0.1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RelaxFactorSweep: want context.Canceled, got %v", err)
	}
	if _, err := PredictionBackfill(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictionBackfill: want context.Canceled, got %v", err)
	}
}
