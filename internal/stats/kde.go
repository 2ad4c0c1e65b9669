package stats

import (
	"math"
	"sort"
)

// Violin summarizes a sample's distribution the way the paper's violin
// plots do: a kernel density estimate evaluated on a grid, plus the usual
// quartile markers. Densities are computed in log10 space when Log is set,
// matching the paper's log-scale runtime violins.
type Violin struct {
	Log     bool      // density estimated over log10(x)
	Grid    []float64 // evaluation positions (original units)
	Density []float64 // estimated density at each grid position
	Summary Summary   // five-number summary in original units
}

// NewViolin builds a violin summary of xs with gridN density points.
// When log is true, non-positive samples are dropped before the log
// transform. Returns a zero Violin for an effectively empty sample.
func NewViolin(xs []float64, gridN int, log bool) Violin {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if log {
			if x > 0 {
				vals = append(vals, math.Log10(x))
			}
		} else {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 || gridN < 2 {
		return Violin{Log: log}
	}
	sort.Float64s(vals)
	v := Violin{Log: log}

	// Silverman's rule-of-thumb bandwidth.
	sd := Stddev(vals)
	iqr := quantileSorted(vals, 0.75) - quantileSorted(vals, 0.25)
	spread := sd
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread == 0 {
		spread = 1e-9
	}
	h := 0.9 * spread * math.Pow(float64(len(vals)), -0.2)

	lo := vals[0] - 2*h
	hi := vals[len(vals)-1] + 2*h
	gridT := LinGrid(lo, hi, gridN)
	density := kdeGaussian(vals, gridT, h)

	v.Grid = make([]float64, gridN)
	v.Density = density
	for i, g := range gridT {
		if log {
			v.Grid[i] = math.Pow(10, g)
		} else {
			v.Grid[i] = g
		}
	}

	// Summary over the original units.
	if log {
		orig := make([]float64, len(vals))
		for i, t := range vals {
			orig[i] = math.Pow(10, t)
		}
		v.Summary = Summarize(orig)
	} else {
		v.Summary = Summarize(vals)
	}
	return v
}

// kdeGaussian evaluates a Gaussian KDE of sorted sample vals at each grid
// point with bandwidth h. Contributions beyond 4 bandwidths are skipped,
// which keeps the evaluation near-linear for large samples.
func kdeGaussian(vals, grid []float64, h float64) []float64 {
	out := make([]float64, len(grid))
	norm := 1 / (float64(len(vals)) * h * math.Sqrt(2*math.Pi))
	for gi, g := range grid {
		// restrict to samples within 4h of g using binary search
		lo := sort.SearchFloat64s(vals, g-4*h)
		hi := sort.SearchFloat64s(vals, g+4*h)
		sum := 0.0
		for i := lo; i < hi; i++ {
			z := (vals[i] - g) / h
			sum += math.Exp(-0.5 * z * z)
		}
		out[gi] = sum * norm
	}
	return out
}
