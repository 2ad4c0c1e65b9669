// Package experiments contains the ablation studies around the paper's
// use cases: a policy x backfilling matrix, a relaxation-factor sweep for
// relaxed vs adaptive backfilling, and Tsafrir-style backfilling with
// system-generated (Last2) runtime predictions in place of user walltimes.
// These extend the paper's evaluation along the design axes DESIGN.md
// calls out.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"crosssched/internal/ml"
	"crosssched/internal/par"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// Cell is one (policy, backfill) evaluation in the matrix.
type Cell struct {
	Policy    sim.Policy
	Backfill  sim.BackfillKind
	AvgWait   float64
	AvgBsld   float64
	Util      float64
	Backfill2 int // jobs backfilled
}

// PolicyMatrix runs every (policy, backfill) combination on the trace.
// Combinations are simulated in parallel (each simulation is independent);
// the result order is deterministic: policies outer, backfills inner. When
// ctx is canceled the in-flight simulations abort at their next event and
// the lowest-index cancellation error is returned.
func PolicyMatrix(ctx context.Context, tr *trace.Trace, policies []sim.Policy, backfills []sim.BackfillKind) ([]Cell, error) {
	type task struct {
		pol sim.Policy
		bf  sim.BackfillKind
	}
	var tasks []task
	for _, pol := range policies {
		for _, bf := range backfills {
			tasks = append(tasks, task{pol, bf})
		}
	}
	out := make([]Cell, len(tasks))
	err := par.ForEach(ctx, len(tasks), func(ctx context.Context, i int) error {
		tk := tasks[i]
		res, err := sim.RunContext(ctx, tr, sim.Options{Policy: tk.pol, Backfill: tk.bf, RelaxFactor: 0.10})
		if err != nil {
			return fmt.Errorf("experiments: %v/%v: %w", tk.pol, tk.bf, err)
		}
		out[i] = Cell{
			Policy: tk.pol, Backfill: tk.bf,
			AvgWait: res.AvgWait, AvgBsld: res.AvgBsld,
			Util: res.Utilization, Backfill2: res.Backfilled,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderPolicyMatrix renders the matrix as a text table.
func RenderPolicyMatrix(system string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Policy x backfilling ablation on %s\n", system)
	fmt.Fprintf(&b, "%-6s  %-13s  %12s  %8s  %7s  %10s\n",
		"policy", "backfill", "avg wait (s)", "avg bsld", "util", "backfilled")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-6s  %-13s  %12.1f  %8.2f  %7.4f  %10d\n",
			c.Policy, c.Backfill, c.AvgWait, c.AvgBsld, c.Util, c.Backfill2)
	}
	return b.String()
}

// SweepPoint is one relaxation factor's outcome for both variants.
type SweepPoint struct {
	Factor                      float64
	RelaxedWait, AdaptiveWait   float64
	RelaxedViol, AdaptiveViol   int
	RelaxedBsld, AdaptiveBsld   float64
	RelaxedUtil, AdaptiveUtil   float64
	RelaxedDelay, AdaptiveDelay float64
}

// RelaxFactorSweep evaluates relaxed and adaptive backfilling across
// relaxation factors — the sensitivity study behind Table II's fixed 10%.
// Factors are simulated in parallel (sim.Run is safe for concurrent use on
// a shared trace); within a factor the adaptive run depends on the relaxed
// run's observed queue length, so the pair stays sequential. The result
// order follows the input factors.
func RelaxFactorSweep(ctx context.Context, tr *trace.Trace, factors []float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(factors))
	err := par.ForEach(ctx, len(factors), func(ctx context.Context, i int) error {
		f := factors[i]
		rel, err := sim.RunContext(ctx, tr, sim.Options{Policy: sim.FCFS, Backfill: sim.Relaxed, RelaxFactor: f})
		if err != nil {
			return err
		}
		ad, err := sim.RunContext(ctx, tr, sim.Options{
			Policy: sim.FCFS, Backfill: sim.AdaptiveRelaxed,
			RelaxFactor: f, MaxQueueLen: rel.MaxQueueLen,
		})
		if err != nil {
			return err
		}
		out[i] = SweepPoint{
			Factor:      f,
			RelaxedWait: rel.AvgWait, AdaptiveWait: ad.AvgWait,
			RelaxedViol: rel.Violations, AdaptiveViol: ad.Violations,
			RelaxedBsld: rel.AvgBsld, AdaptiveBsld: ad.AvgBsld,
			RelaxedUtil: rel.Utilization, AdaptiveUtil: ad.Utilization,
			RelaxedDelay: rel.ViolationDelay, AdaptiveDelay: ad.ViolationDelay,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderSweep renders the factor sweep.
func RenderSweep(system string, pts []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Relaxation-factor sweep on %s (relaxed | adaptive)\n", system)
	fmt.Fprintf(&b, "%-7s  %11s  %11s  %11s  %11s\n",
		"factor", "wait r|a", "bsld r|a", "viol r|a", "util r|a")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-7.2f  %5.0f|%5.0f  %5.2f|%5.2f  %5d|%5d  %5.3f|%5.3f\n",
			p.Factor, p.RelaxedWait, p.AdaptiveWait,
			p.RelaxedBsld, p.AdaptiveBsld,
			p.RelaxedViol, p.AdaptiveViol,
			p.RelaxedUtil, p.AdaptiveUtil)
	}
	return b.String()
}

// PredictionBackfillResult compares planning-estimate sources for EASY
// backfilling.
type PredictionBackfillResult struct {
	System string
	// UserEstimates uses the trace's requested walltimes.
	UserEstimates sim.Result
	// Last2 uses system-generated Last2 predictions (Tsafrir et al.).
	Last2 sim.Result
	// Oracle uses the true runtimes (perfect estimates).
	Oracle sim.Result
}

// defaultColdStartEstimate is the planning estimate used when a job has
// no requested walltime AND nothing at all has been observed yet — the
// very first jobs of a trace with missing walltimes. One hour is the
// conventional queue-default on the paper's systems.
const defaultColdStartEstimate = 3600

// last2Predictions precomputes per-job Last2 walltime predictions in
// submit order. Every prediction uses only information available BEFORE
// the job runs: the user's Last2 history, the job's requested walltime,
// or — when the walltime is missing — the running mean of runtimes
// observed so far across all users. The predicted job's own runtime is
// never an input (using it would leak the oracle into the "system
// prediction" arm of the comparison).
func last2Predictions(tr *trace.Trace) map[int]float64 {
	last2 := ml.NewLast2()
	preds := make(map[int]float64, tr.Len())
	seenSum, seenN := 0.0, 0
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		fallback := j.Walltime
		if fallback <= 0 {
			if seenN > 0 {
				fallback = seenSum / float64(seenN)
			} else {
				fallback = defaultColdStartEstimate
			}
		}
		preds[j.ID] = last2.Predict(j.User, fallback)
		last2.Observe(j.User, j.Run)
		seenSum += j.Run
		seenN++
	}
	return preds
}

// PredictionBackfill runs the three-estimate comparison. The Last2
// predictor is trained online: each job's prediction uses only jobs the
// scheduler has already seen complete (approximated by submit order, as in
// the original study).
func PredictionBackfill(ctx context.Context, tr *trace.Trace) (*PredictionBackfillResult, error) {
	out := &PredictionBackfillResult{System: tr.System.Name}

	user, err := sim.RunContext(ctx, tr, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		return nil, err
	}
	out.UserEstimates = *user

	preds := last2Predictions(tr)
	l2, err := sim.RunContext(ctx, tr, sim.Options{
		Policy: sim.FCFS, Backfill: sim.EASY,
		WalltimePredictor: func(j trace.Job) float64 { return preds[j.ID] },
	})
	if err != nil {
		return nil, err
	}
	out.Last2 = *l2

	oracle, err := sim.RunContext(ctx, tr, sim.Options{
		Policy: sim.FCFS, Backfill: sim.EASY, UseActualRuntime: true,
	})
	if err != nil {
		return nil, err
	}
	out.Oracle = *oracle
	return out, nil
}

// Render renders the estimate-source comparison.
func (r *PredictionBackfillResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EASY backfilling estimate sources on %s (Tsafrir-style)\n", r.System)
	fmt.Fprintf(&b, "%-15s  %12s  %8s  %7s  %10s\n",
		"estimates", "avg wait (s)", "avg bsld", "util", "backfilled")
	row := func(name string, res sim.Result) {
		fmt.Fprintf(&b, "%-15s  %12.1f  %8.2f  %7.4f  %10d\n",
			name, res.AvgWait, res.AvgBsld, res.Utilization, res.Backfilled)
	}
	row("user walltimes", r.UserEstimates)
	row("Last2 predicted", r.Last2)
	row("oracle", r.Oracle)
	return b.String()
}
