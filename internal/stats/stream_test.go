package stats

import (
	"math"
	"testing"

	"crosssched/internal/dist"
)

// streamTestSamples returns deterministic samples from distributions shaped
// like the trace columns the streaming pipeline summarizes: uniform,
// heavy-tailed runtimes, near-constant with ties, and a bimodal mixture.
func streamTestSamples(n int) map[string][]float64 {
	out := map[string][]float64{}
	rng := dist.NewRNG(7)
	uni := make([]float64, n)
	exp := make([]float64, n)
	logn := make([]float64, n)
	bimodal := make([]float64, n)
	e := dist.Exponential{Rate: 1.0 / 300}
	l := dist.LogNormal{Mu: 4, Sigma: 1.5}
	for i := 0; i < n; i++ {
		uni[i] = rng.Float64() * 1000
		exp[i] = e.Sample(rng)
		logn[i] = l.Sample(rng)
		if rng.Float64() < 0.3 {
			bimodal[i] = 10 + rng.Float64()
		} else {
			bimodal[i] = 5000 + 100*rng.Float64()
		}
	}
	out["uniform"] = uni
	out["exponential"] = exp
	out["lognormal"] = logn
	out["bimodal"] = bimodal
	return out
}

func TestMomentsMatchesExact(t *testing.T) {
	for name, xs := range streamTestSamples(50000) {
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		relEq := func(field string, got, want float64) {
			scale := math.Abs(want)
			if scale < 1 {
				scale = 1
			}
			if math.Abs(got-want) > 1e-9*scale {
				t.Fatalf("%s: %s = %v, exact %v", name, field, got, want)
			}
		}
		if m.N() != int64(len(xs)) {
			t.Fatalf("%s: n %d want %d", name, m.N(), len(xs))
		}
		relEq("mean", m.Mean(), Mean(xs))
		relEq("variance", m.Variance(), Variance(xs))
		relEq("stddev", m.Stddev(), Stddev(xs))
		relEq("sum", m.Sum(), Sum(xs))
		if m.Min() != Min(xs) || m.Max() != Max(xs) {
			t.Fatalf("%s: min/max %v/%v want %v/%v", name, m.Min(), m.Max(), Min(xs), Max(xs))
		}
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.Sum() != 0 || m.N() != 0 {
		t.Fatal("empty moments not zero")
	}
	if !math.IsInf(m.Min(), 1) || !math.IsInf(m.Max(), -1) {
		t.Fatal("empty min/max conventions differ from Min/Max")
	}
}

func TestMomentsMerge(t *testing.T) {
	xs := streamTestSamples(20000)["lognormal"]
	var whole Moments
	for _, x := range xs {
		whole.Add(x)
	}
	// Three unequal shards, merged in order; also merge an empty shard on
	// both sides.
	var a, b, c, merged Moments
	for _, x := range xs[:777] {
		a.Add(x)
	}
	for _, x := range xs[777:5000] {
		b.Add(x)
	}
	for _, x := range xs[5000:] {
		c.Add(x)
	}
	merged.Merge(Moments{})
	merged.Merge(a)
	merged.Merge(b)
	merged.Merge(c)
	merged.Merge(Moments{})
	if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatal("merge lost count or extremes")
	}
	if math.Abs(merged.Mean()-whole.Mean()) > 1e-9*whole.Mean() {
		t.Fatalf("merged mean %v want %v", merged.Mean(), whole.Mean())
	}
	if math.Abs(merged.Variance()-whole.Variance()) > 1e-6*whole.Variance() {
		t.Fatalf("merged variance %v want %v", merged.Variance(), whole.Variance())
	}
}

// rankErr measures estimation error in rank space: how far (in cumulative
// probability) the estimate sits from the target quantile of the exact
// ECDF. Rank error is the natural bound for a t-digest sketch —
// value-space error is unbounded on heavy tails.
func rankErr(e *ECDF, estimate, q float64) float64 {
	return math.Abs(e.At(estimate) - q)
}

func TestQuantileSketchErrorBound(t *testing.T) {
	qs := []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	for name, xs := range streamTestSamples(200000) {
		e := NewECDF(xs)
		sk := NewQuantileSketch(0)
		for _, x := range xs {
			sk.Add(x)
		}
		for _, q := range qs {
			err := rankErr(e, sk.Quantile(q), q)
			// The k-scale function concentrates resolution in the tails:
			// bound mid-quantiles at 1% rank error and the 1%/99% tails at
			// 0.5%.
			bound := 0.01
			if q <= 0.01 || q >= 0.99 {
				bound = 0.005
			}
			if err > bound {
				t.Errorf("%s: Quantile(%v) = %v, rank error %.5f > %.3f",
					name, q, sk.Quantile(q), err, bound)
			}
		}
	}
}

// TestQuantileSketchBoundedMemory: the centroid count must stay
// O(compression) no matter how long the stream is.
func TestQuantileSketchBoundedMemory(t *testing.T) {
	sk := NewQuantileSketch(100)
	rng := dist.NewRNG(11)
	for i := 0; i < 1_000_000; i++ {
		sk.Add(rng.Float64() * float64(i+1))
	}
	sk.flush()
	if c := len(sk.means); c > 300 {
		t.Fatalf("centroid count %d exceeds 3x compression", c)
	}
	if sk.N() != 1_000_000 {
		t.Fatalf("n %d", sk.N())
	}
}

func TestQuantileSketchDegenerate(t *testing.T) {
	sk := NewQuantileSketch(0)
	if sk.Quantile(0.5) != 0 {
		t.Fatal("empty sketch conventions")
	}
	sk.Add(42)
	if sk.Quantile(0) != 42 || sk.Quantile(0.5) != 42 || sk.Quantile(1) != 42 {
		t.Fatalf("single value quantiles: %v", sk.Quantile(0.5))
	}
	// All-ties stream: every quantile is the tied value.
	ties := NewQuantileSketch(50)
	for i := 0; i < 10000; i++ {
		ties.Add(7)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if ties.Quantile(q) != 7 {
			t.Fatalf("tied quantile(%v) = %v", q, ties.Quantile(q))
		}
	}
}

// TestStreamSummaryMatchesSummarize: exact fields agree with Summarize to
// float tolerance; quantile fields agree in rank space.
func TestStreamSummaryMatchesSummarize(t *testing.T) {
	for name, xs := range streamTestSamples(100000) {
		ss := NewStreamSummary()
		for _, x := range xs {
			ss.Add(x)
		}
		got := ss.Summary()
		want := Summarize(xs)
		e := NewECDF(xs)
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("%s: n/min/max mismatch: %+v vs %+v", name, got, want)
		}
		if math.Abs(got.Mean-want.Mean) > 1e-9*math.Abs(want.Mean) {
			t.Fatalf("%s: mean %v want %v", name, got.Mean, want.Mean)
		}
		if math.Abs(got.Stddev-want.Stddev) > 1e-6*want.Stddev {
			t.Fatalf("%s: stddev %v want %v", name, got.Stddev, want.Stddev)
		}
		for _, pq := range []struct {
			q         float64
			got, want float64
		}{
			{0.25, got.P25, want.P25},
			{0.50, got.P50, want.P50},
			{0.75, got.P75, want.P75},
			{0.90, got.P90, want.P90},
			{0.99, got.P99, want.P99},
		} {
			if err := rankErr(e, pq.got, pq.q); err > 0.01 {
				t.Errorf("%s: P%g = %v (exact %v), rank error %.5f", name, pq.q*100, pq.got, pq.want, err)
			}
		}
	}
	if empty := NewStreamSummary(); empty.Summary() != (Summary{}) {
		t.Fatal("empty StreamSummary not zero Summary")
	}
}
