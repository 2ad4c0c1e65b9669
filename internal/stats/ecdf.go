package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a sample.
// It supports point evaluation, inverse lookup, and resampling onto a fixed
// grid of x values (for plotting several systems on a shared axis).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied and sorted.
func NewECDF(xs []float64) *ECDF {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return &ECDF{sorted: c}
}

// N returns the number of underlying samples.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x), the fraction of samples <= x. Returns 0 for an
// empty ECDF.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// index of first element > x
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Inverse returns the smallest sample value v with At(v) >= p, i.e. the
// empirical p-quantile. Returns 0 for an empty ECDF.
func (e *ECDF) Inverse(p float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[n-1]
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return e.sorted[i]
}

// Points returns the step points (x_i, i/n) of the ECDF, thinned to at most
// maxPoints entries to keep rendering cheap for multi-million-job traces.
func (e *ECDF) Points(maxPoints int) (xs, ps []float64) {
	n := len(e.sorted)
	if n == 0 || maxPoints <= 0 {
		return nil, nil
	}
	step := 1
	if n > maxPoints {
		step = n / maxPoints
	}
	for i := 0; i < n; i += step {
		xs = append(xs, e.sorted[i])
		ps = append(ps, float64(i+1)/float64(n))
	}
	// always include the final point so the curve reaches 1.0
	if xs[len(xs)-1] != e.sorted[n-1] || ps[len(ps)-1] != 1 {
		xs = append(xs, e.sorted[n-1])
		ps = append(ps, 1)
	}
	return xs, ps
}

// LogGrid returns n log-spaced values covering [lo, hi]. It requires
// 0 < lo < hi and n >= 2; otherwise it returns nil.
func LogGrid(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		return nil
	}
	out := make([]float64, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		out[i] = math.Pow(10, llo+f*(lhi-llo))
	}
	return out
}

// LinGrid returns n linearly spaced values covering [lo, hi]; n >= 2.
func LinGrid(lo, hi float64, n int) []float64 {
	if n < 2 || hi < lo {
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		out[i] = lo + f*(hi-lo)
	}
	return out
}
