package experiments

import (
	"context"
	"fmt"
	"strings"

	"crosssched/internal/par"
	"crosssched/internal/sim"
	"crosssched/internal/stats"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// Hybrid-future sweep: the paper's motivating question is how emerging DL
// workloads change scheduling on traditional HPC machines (Introduction,
// Conclusion: "the upcoming hybrid workloads"). This experiment injects an
// increasing share of DL-style jobs (small, short, bursty — Philly-like
// geometry) into a Theta-like HPC workload on the SAME machine and
// re-schedules with FCFS+EASY, measuring how scheduler outcomes degrade
// for the incumbent HPC jobs.

// HybridPoint is one DL-share outcome.
type HybridPoint struct {
	// DLShare is the injected DL fraction of total job count.
	DLShare float64
	// Totals across all jobs.
	AvgWait, AvgBsld, Util float64
	// Per-origin waits.
	HPCMedianWait float64
	HPCP90Wait    float64
	DLMedianWait  float64
	HPCJobs       int
	DLJobs        int
	// DLCoreHourShare is the injected class's share of consumed core
	// hours (small even at high count shares — DL jobs are small).
	DLCoreHourShare float64
}

// HybridSweep generates the base HPC workload once and one DL overlay per
// share, merging and re-scheduling each combination. The base HPC trace
// is generated once; the shares are simulated in parallel (each share
// builds its own overlay and merged copy, so workers never touch shared
// mutable state). The result order follows the input shares.
func HybridSweep(ctx context.Context, days float64, seed uint64, shares []float64) ([]HybridPoint, error) {
	if len(shares) == 0 {
		shares = []float64{0, 0.25, 0.5, 0.75}
	}
	hpcProfile := synth.Theta(days)
	base, err := hpcProfile.Generate(seed)
	if err != nil {
		return nil, err
	}
	out := make([]HybridPoint, len(shares))
	err = par.ForEach(ctx, len(shares), func(ctx context.Context, i int) error {
		pt, err := hybridPoint(ctx, base, days, seed, shares[i])
		if err != nil {
			return fmt.Errorf("experiments: hybrid share %v: %w", shares[i], err)
		}
		out[i] = *pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func hybridPoint(ctx context.Context, base *trace.Trace, days float64, seed uint64, share float64) (*HybridPoint, error) {
	combined := base
	offset := -1
	if share > 0 {
		// DL overlay: Philly-like geometry scaled to the target count
		// share, re-homed onto the HPC machine (single pool, and the DL
		// users are forced to provide walltime estimates like everyone
		// else on the system).
		dlProfile := synth.Philly(days)
		dlProfile.Sys = base.System
		dlProfile.Sys.VirtualClusters = 0
		wantDL := share / (1 - share) * float64(base.Len())
		dlProfile.JobsPerDay = wantDL / days
		dlProfile.QueueScale = 500
		overlay, err := dlProfile.Generate(seed + 1000)
		if err != nil {
			return nil, err
		}
		nodeCores := base.System.CoresPerNode
		if nodeCores <= 0 {
			nodeCores = 1
		}
		for i := range overlay.Jobs {
			// Month-long uncheckpointed training does not survive a
			// shared HPC queue: cap converted DL jobs at 2 days.
			if overlay.Jobs[i].Run > 2*86400 {
				overlay.Jobs[i].Run = 2 * 86400
			}
			overlay.Jobs[i].Walltime = overlay.Jobs[i].Run * 2
			// GPU-node equivalence: one "GPU" of the DL workload maps to
			// one accelerator node's worth of cores on the HPC machine.
			overlay.Jobs[i].Procs *= nodeCores
			if overlay.Jobs[i].Procs > base.System.TotalCores {
				overlay.Jobs[i].Procs = base.System.TotalCores
			}
		}
		combined, offset = base.Merge(overlay)
	}

	res, err := sim.RunContext(ctx, combined, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		return nil, err
	}
	pt := &HybridPoint{
		DLShare: share,
		AvgWait: res.AvgWait, AvgBsld: res.AvgBsld,
		// Window-based utilization: the simulator's makespan-based util
		// is distorted by a few very long jobs extending the horizon.
		Util: windowUtil(res.Jobs, combined.System.TotalCores),
	}
	var hpcWaits, dlWaits []float64
	for _, j := range res.Jobs {
		if offset >= 0 && j.User >= offset {
			dlWaits = append(dlWaits, j.Wait)
		} else {
			hpcWaits = append(hpcWaits, j.Wait)
		}
	}
	var hpcCH, dlCH float64
	for _, j := range res.Jobs {
		if offset >= 0 && j.User >= offset {
			dlCH += j.CoreHours()
		} else {
			hpcCH += j.CoreHours()
		}
	}
	if hpcCH+dlCH > 0 {
		pt.DLCoreHourShare = dlCH / (hpcCH + dlCH)
	}
	pt.HPCJobs = len(hpcWaits)
	pt.DLJobs = len(dlWaits)
	pt.HPCMedianWait = stats.Median(hpcWaits)
	pt.HPCP90Wait = stats.Quantile(hpcWaits, 0.9)
	pt.DLMedianWait = stats.Median(dlWaits)
	return pt, nil
}

// windowUtil computes occupancy over [first submit, last submit].
func windowUtil(jobs []trace.Job, capacity int) float64 {
	if len(jobs) < 2 {
		return 0
	}
	lo := jobs[0].Submit
	hi := jobs[len(jobs)-1].Submit
	if hi <= lo {
		return 0
	}
	busy := 0.0
	for i := range jobs {
		s, e := jobs[i].Start(), jobs[i].End()
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			busy += (e - s) * float64(jobs[i].Procs)
		}
	}
	return busy / (float64(capacity) * (hi - lo))
}

// RenderHybrid renders the sweep.
func RenderHybrid(pts []HybridPoint) string {
	var b strings.Builder
	b.WriteString("Hybrid-future sweep: DL jobs injected into a Theta-like HPC machine (FCFS+EASY)\n")
	fmt.Fprintf(&b, "%-8s  %8s  %8s  %7s  %9s  %7s  %12s  %12s  %11s\n",
		"DLshare", "HPCjobs", "DLjobs", "DL CH%", "avg bsld", "util",
		"HPC med wait", "HPC p90 wait", "DL med wait")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8.2f  %8d  %8d  %6.1f%%  %9.2f  %7.4f  %12.1f  %12.1f  %11.1f\n",
			p.DLShare, p.HPCJobs, p.DLJobs, 100*p.DLCoreHourShare, p.AvgBsld, p.Util,
			p.HPCMedianWait, p.HPCP90Wait, p.DLMedianWait)
	}
	return b.String()
}
