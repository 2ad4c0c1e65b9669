package stats

import (
	"math"
)

// HourlyCounts buckets event timestamps (seconds since trace start) by the
// local hour-of-day given a start hour offset, producing the paper's
// Figure 1(b)-bottom series. startHour shifts t=0 to that wall-clock hour.
func HourlyCounts(times []float64, startHour int) [24]int {
	var out [24]int
	for _, t := range times {
		h := (int(t/3600) + startHour) % 24
		if h < 0 {
			h += 24
		}
		out[h]++
	}
	return out
}

// MaxMinRatio returns max/min over the nonzero entries of counts; it is
// the paper's measure of diurnal peakiness. Returns +Inf when any entry is
// zero but another is positive, and 0 when all entries are zero.
func MaxMinRatio(counts [24]int) float64 {
	mn, mx := math.MaxInt64, 0
	for _, c := range counts {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	if mx == 0 {
		return 0
	}
	if mn == 0 {
		return math.Inf(1)
	}
	return float64(mx) / float64(mn)
}
