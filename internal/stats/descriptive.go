// Package stats provides the descriptive-statistics substrate used by every
// characterization figure: moments, quantiles, empirical CDFs, hourly counts,
// kernel density summaries (violins), correlation, and grouped aggregation.
//
// Go has no strong data-analysis libraries, so this package implements the
// minimal, well-tested subset that the paper's analyses need, with care
// around the degenerate inputs (empty slices, single elements, ties) that
// real traces contain.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
// The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantileSorted(c, q)
}

// QuantileSorted is Quantile for data already sorted ascending; it avoids
// the copy and sort.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(c []float64, q float64) float64 {
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c[lo]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Summary holds the five-number summary plus mean and count for a sample.
type Summary struct {
	N                  int
	Mean               float64
	Min, P25, P50, P75 float64
	P90, P99, Max      float64
	Stddev             float64
}

// Summarize computes a Summary in a single sort of a copy of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return Summary{
		N:      len(c),
		Mean:   Mean(c),
		Min:    c[0],
		P25:    quantileSorted(c, 0.25),
		P50:    quantileSorted(c, 0.50),
		P75:    quantileSorted(c, 0.75),
		P90:    quantileSorted(c, 0.90),
		P99:    quantileSorted(c, 0.99),
		Max:    c[len(c)-1],
		Stddev: Stddev(c),
	}
}

// Pearson returns the Pearson linear correlation coefficient of xs and ys.
// It returns 0 when either input has zero variance or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of xs and ys: the Pearson
// correlation of their fractional ranks. Ties receive their average rank.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based fractional ranks of xs, with ties assigned
// their average rank.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
