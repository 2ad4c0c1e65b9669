package synth

import (
	"fmt"
	"sort"
	"testing"

	"crosssched/internal/stats"
	"crosssched/internal/trace"
)

// TestProbe prints calibration diagnostics for every profile. Run with
// `go test -run TestProbe -v ./internal/synth/` while tuning parameters.
func TestProbe(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic probe; run with -v")
	}
	for _, name := range SystemNames {
		p, err := ByName(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := p.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		rt := tr.Runtimes()
		iv := tr.ArrivalIntervals()
		waits := tr.Waits()
		procs := tr.Procs()
		util := occupancyUtil(tr)
		var pass, fail, kill int
		chByStatus := map[trace.Status]float64{}
		for _, j := range tr.Jobs {
			switch j.Status {
			case trace.Passed:
				pass++
			case trace.Failed:
				fail++
			case trace.Killed:
				kill++
			}
			chByStatus[j.Status] += j.CoreHours()
		}
		totCH := 0.0
		for _, j := range tr.Jobs {
			totCH += j.CoreHours()
		}
		n := float64(tr.Len())
		// core-hour share of small jobs
		smallCH := 0.0
		for _, j := range tr.Jobs {
			if sizeCategory3(tr.System.Kind, j.Procs, tr.System.TotalCores) == 0 {
				smallCH += j.CoreHours()
			}
		}
		// CH share by length cat
		var lenCH [3]float64
		for _, j := range tr.Jobs {
			lenCH[lengthCategory(j.Run)] += j.CoreHours()
		}
		fmt.Printf("%-11s n=%6d medRT=%8.0f medIV=%6.1f medWait=%8.0f p80wait=%8.0f util=%.3f medProcs=%6.0f pass=%.2f fail=%.2f kill=%.2f CHpass=%.2f CHsmall=%.2f CHlen=[%.2f %.2f %.2f]\n",
			name, tr.Len(), stats.Median(rt), stats.Median(iv), stats.Median(waits),
			stats.Quantile(waits, 0.8), util, stats.Median(procs),
			float64(pass)/n, float64(fail)/n, float64(kill)/n,
			chByStatus[trace.Passed]/totCH, smallCH/totCH,
			lenCH[0]/totCH, lenCH[1]/totCH, lenCH[2]/totCH)
	}
}

// occupancyUtil computes utilization over the submission window: core
// seconds of execution clipped to [first submit, last submit] divided by
// capacity x window.
func occupancyUtil(tr *trace.Trace) float64 {
	if tr.Len() < 2 {
		return 0
	}
	lo := tr.Jobs[0].Submit
	hi := tr.Jobs[tr.Len()-1].Submit
	if hi <= lo {
		return 0
	}
	busy := 0.0
	for _, j := range tr.Jobs {
		s, e := j.Start(), j.End()
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			busy += (e - s) * float64(j.Procs)
		}
	}
	return busy / (float64(tr.System.TotalCores) * (hi - lo))
}

var _ = sort.Float64s
