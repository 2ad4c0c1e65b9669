package dist

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func sampleMany(s Sampler, n int, seed uint64) []float64 {
	r := NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Sample(r)
	}
	return out
}

func meanOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[len(c)/2]
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{Rate: 0.5}
	xs := sampleMany(d, 100000, 1)
	if m := meanOf(xs); math.Abs(m-2) > 0.05 {
		t.Fatalf("exponential mean %v want ~2", m)
	}
	for _, x := range xs[:1000] {
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	d := LogNormalFromMedian(5400, 1.0) // 1.5 hours
	xs := sampleMany(d, 100000, 2)
	med := medianOf(xs)
	if math.Abs(med-5400)/5400 > 0.05 {
		t.Fatalf("lognormal median %v want ~5400", med)
	}
	if math.Abs(d.Median()-5400) > 1e-6 {
		t.Fatalf("analytic median %v want 5400", d.Median())
	}
}

func TestLogNormalMean(t *testing.T) {
	d := LogNormal{Mu: 0, Sigma: 0.5}
	want := math.Exp(0.125)
	xs := sampleMany(d, 200000, 3)
	if m := meanOf(xs); math.Abs(m-want)/want > 0.02 {
		t.Fatalf("lognormal mean %v want ~%v", m, want)
	}
}

func TestWeibullPositiveAndMedian(t *testing.T) {
	d := Weibull{K: 0.6, Lambda: 10}
	xs := sampleMany(d, 100000, 4)
	// analytic median = lambda * ln(2)^(1/k)
	want := 10 * math.Pow(math.Ln2, 1/0.6)
	med := medianOf(xs)
	if math.Abs(med-want)/want > 0.05 {
		t.Fatalf("weibull median %v want ~%v", med, want)
	}
	for _, x := range xs[:1000] {
		if x < 0 {
			t.Fatalf("negative weibull variate %v", x)
		}
	}
}

func TestParetoTail(t *testing.T) {
	d := Pareto{Xm: 100, Alpha: 1.5}
	xs := sampleMany(d, 100000, 5)
	for _, x := range xs[:1000] {
		if x < 100 {
			t.Fatalf("pareto variate %v below Xm", x)
		}
	}
	// P(X > 2*Xm) = (1/2)^alpha ~ 0.3536
	count := 0
	for _, x := range xs {
		if x > 200 {
			count++
		}
	}
	frac := float64(count) / float64(len(xs))
	if math.Abs(frac-math.Pow(0.5, 1.5)) > 0.01 {
		t.Fatalf("pareto tail fraction %v want ~%v", frac, math.Pow(0.5, 1.5))
	}
}

func TestUniformRange(t *testing.T) {
	d := Uniform{Lo: 3, Hi: 9}
	xs := sampleMany(d, 50000, 6)
	for _, x := range xs {
		if x < 3 || x >= 9 {
			t.Fatalf("uniform variate %v outside [3,9)", x)
		}
	}
	if m := meanOf(xs); math.Abs(m-6) > 0.05 {
		t.Fatalf("uniform mean %v want ~6", m)
	}
}

func TestGammaMean(t *testing.T) {
	d := Gamma{Alpha: 3, Beta: 0.5} // mean = 6
	xs := sampleMany(d, 100000, 7)
	if m := meanOf(xs); math.Abs(m-6)/6 > 0.03 {
		t.Fatalf("gamma mean %v want ~6", m)
	}
}

func TestGammaSmallShape(t *testing.T) {
	d := Gamma{Alpha: 0.5, Beta: 1} // mean = 0.5
	xs := sampleMany(d, 200000, 8)
	if m := meanOf(xs); math.Abs(m-0.5)/0.5 > 0.05 {
		t.Fatalf("gamma(0.5,1) mean %v want ~0.5", m)
	}
	for _, x := range xs[:1000] {
		if x < 0 {
			t.Fatalf("negative gamma variate %v", x)
		}
	}
}

func TestTruncatedNormalBounds(t *testing.T) {
	d := TruncatedNormal{Mean: 0, Stddev: 5, Lo: -1, Hi: 1}
	xs := sampleMany(d, 20000, 9)
	for _, x := range xs {
		if x < -1 || x > 1 {
			t.Fatalf("truncated normal variate %v outside [-1,1]", x)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.5)
	r := NewRNG(10)
	counts := make([]int, 101)
	const n = 100000
	for i := 0; i < n; i++ {
		rank := z.SampleRank(r)
		if rank < 1 || rank > 100 {
			t.Fatalf("zipf rank %d out of [1,100]", rank)
		}
		counts[rank]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[5] {
		t.Fatalf("zipf counts not decreasing: %d %d %d", counts[1], counts[2], counts[5])
	}
	// rank 1 mass for s=1.5 over N=100 is about 1/zeta ~ 0.385
	frac := float64(counts[1]) / n
	if frac < 0.3 || frac > 0.5 {
		t.Fatalf("zipf rank-1 mass %v out of expected band", frac)
	}
}

func TestMixtureWeights(t *testing.T) {
	m := NewMixture(
		[]float64{0.8, 0.2},
		[]Sampler{Constant{V: 1}, Constant{V: 100}},
	)
	r := NewRNG(11)
	ones := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if m.Sample(r) == 1 {
			ones++
		}
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.8) > 0.01 {
		t.Fatalf("mixture component-1 fraction %v want ~0.8", frac)
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]float64{1}, []Sampler{Constant{}, Constant{}}) },
		func() { NewMixture([]float64{-1, 2}, []Sampler{Constant{}, Constant{}}) },
		func() { NewMixture([]float64{0, 0}, []Sampler{Constant{}, Constant{}}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCategoricalDistribution(t *testing.T) {
	c := NewCategorical([]float64{1, 2, 7})
	r := NewRNG(12)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.SampleIndex(r)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("categorical index %d frac %v want ~%v", i, got, want)
		}
	}
}

func TestClamped(t *testing.T) {
	d := Clamped{S: Constant{V: 1000}, Lo: 0, Hi: 10}
	if got := d.Sample(NewRNG(1)); got != 10 {
		t.Fatalf("clamped high: got %v want 10", got)
	}
	d2 := Clamped{S: Constant{V: -5}, Lo: 0, Hi: 10}
	if got := d2.Sample(NewRNG(1)); got != 0 {
		t.Fatalf("clamped low: got %v want 0", got)
	}
	d3 := Clamped{S: Constant{V: 5}, Lo: 0, Hi: 10}
	if got := d3.Sample(NewRNG(1)); got != 5 {
		t.Fatalf("clamped passthrough: got %v want 5", got)
	}
}

// Property: every sampler produces finite values for arbitrary seeds.
func TestSamplersFinitePropertyQuick(t *testing.T) {
	samplers := []Sampler{
		Exponential{Rate: 1},
		LogNormal{Mu: 2, Sigma: 1.5},
		Weibull{K: 0.7, Lambda: 30},
		Pareto{Xm: 1, Alpha: 1.1},
		Gamma{Alpha: 2, Beta: 1},
		Uniform{Lo: 0, Hi: 1},
		TruncatedNormal{Mean: 0, Stddev: 1, Lo: -3, Hi: 3},
	}
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for _, s := range samplers {
			for i := 0; i < 20; i++ {
				x := s.Sample(r)
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Zipf always returns ranks within [1, N].
func TestZipfRangePropertyQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		z := NewZipf(n, 1.2)
		r := NewRNG(seed)
		for i := 0; i < 30; i++ {
			rank := z.SampleRank(r)
			if rank < 1 || rank > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
