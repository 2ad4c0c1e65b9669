package experiments

import (
	"context"
	"fmt"
	"strings"

	"crosssched/internal/ml"
	"crosssched/internal/par"
	"crosssched/internal/trace"
)

// Fault-aware proactive termination: the paper's Takeaway 7 notes that
// killed jobs waste outsized core hours and that fault-aware schedulers
// "should be revisited in the new hybrid workload setting". This experiment
// makes that concrete: train the per-user status-survival predictor on a
// trace prefix, then during the evaluation suffix, check each running job
// at periodic elapsed checkpoints and terminate it once the predicted
// probability of NOT passing exceeds a threshold. We tally the core hours
// saved on jobs that indeed would not pass, against the good work destroyed
// when a would-pass job is killed by mistake.

// FaultAwarePoint is one termination threshold's outcome.
type FaultAwarePoint struct {
	// Threshold on P(Failed or Killed | user, elapsed).
	Threshold float64
	// Terminated counts proactively killed jobs.
	Terminated int
	// TruePositives are terminated jobs that would not have passed.
	TruePositives int
	// FalseKills are terminated jobs that would have passed.
	FalseKills int
	// SavedCoreHours is the tail execution avoided on true positives.
	SavedCoreHours float64
	// LostCoreHours is the partial execution wasted on false kills (that
	// work must be redone).
	LostCoreHours float64
	// NetCoreHours = Saved - Lost.
	NetCoreHours float64
	// WastedBaseline is the total core hours consumed by non-passed jobs
	// in the evaluation window without intervention (the addressable
	// waste).
	WastedBaseline float64
}

// Precision is TruePositives / Terminated (1 when nothing terminated).
func (p FaultAwarePoint) Precision() float64 {
	if p.Terminated == 0 {
		return 1
	}
	return float64(p.TruePositives) / float64(p.Terminated)
}

// FaultAwareResult is the threshold sweep for one trace.
type FaultAwareResult struct {
	System     string
	TrainJobs  int
	EvalJobs   int
	Points     []FaultAwarePoint
	CheckEvery float64 // checkpoint period in seconds
}

// FaultAware runs the proactive-termination sweep. Checkpoints occur every
// checkEvery seconds of job elapsed time (default 300s). The predictor is
// trained once; the thresholds are evaluated in parallel (each threshold
// replays the evaluation suffix independently against the frozen
// predictor). The result order follows the input thresholds.
func FaultAware(ctx context.Context, tr *trace.Trace, thresholds []float64, checkEvery float64) (*FaultAwareResult, error) {
	if tr.Len() < 100 {
		return nil, fmt.Errorf("experiments: trace too small (%d jobs)", tr.Len())
	}
	if len(thresholds) == 0 {
		thresholds = []float64{0.6, 0.7, 0.8, 0.9, 0.95}
	}
	if checkEvery <= 0 {
		checkEvery = 300
	}
	cut := tr.Len() * 7 / 10
	surv := ml.NewStatusSurvival(3)
	for i := 0; i < cut; i++ {
		j := &tr.Jobs[i]
		surv.Observe(j.User, j.Run, int(j.Status))
	}
	surv.Freeze()

	res := &FaultAwareResult{
		System: tr.System.Name, TrainJobs: cut, EvalJobs: tr.Len() - cut,
		CheckEvery: checkEvery,
	}
	wasted := 0.0
	for i := cut; i < tr.Len(); i++ {
		if tr.Jobs[i].Status != trace.Passed {
			wasted += tr.Jobs[i].CoreHours()
		}
	}

	res.Points = make([]FaultAwarePoint, len(thresholds))
	err := par.ForEach(ctx, len(thresholds), func(ctx context.Context, k int) error {
		th := thresholds[k]
		pt := FaultAwarePoint{Threshold: th, WastedBaseline: wasted}
		for i := cut; i < tr.Len(); i++ {
			j := &tr.Jobs[i]
			killAt := -1.0
			for t := checkEvery; t < j.Run; t += checkEvery {
				probs := surv.Probabilities(j.User, t)
				if 1-probs[int(trace.Passed)] >= th {
					killAt = t
					break
				}
			}
			if killAt < 0 {
				continue
			}
			pt.Terminated++
			if j.Status == trace.Passed {
				pt.FalseKills++
				pt.LostCoreHours += killAt * float64(j.Procs) / 3600
			} else {
				pt.TruePositives++
				pt.SavedCoreHours += (j.Run - killAt) * float64(j.Procs) / 3600
			}
		}
		pt.NetCoreHours = pt.SavedCoreHours - pt.LostCoreHours
		res.Points[k] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render renders the sweep.
func (r *FaultAwareResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-aware proactive termination on %s (train %d, eval %d jobs; checkpoints every %.0fs)\n",
		r.System, r.TrainJobs, r.EvalJobs, r.CheckEvery)
	fmt.Fprintf(&b, "%-9s  %-10s  %-9s  %-10s  %12s  %12s  %12s  %9s\n",
		"threshold", "terminated", "truePos", "falseKills",
		"saved CH", "lost CH", "net CH", "precision")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-9.2f  %-10d  %-9d  %-10d  %12.1f  %12.1f  %12.1f  %8.1f%%\n",
			p.Threshold, p.Terminated, p.TruePositives, p.FalseKills,
			p.SavedCoreHours, p.LostCoreHours, p.NetCoreHours, 100*p.Precision())
	}
	if len(r.Points) > 0 {
		fmt.Fprintf(&b, "addressable waste (core hours of non-passed jobs): %.1f\n",
			r.Points[0].WastedBaseline)
	}
	return b.String()
}
