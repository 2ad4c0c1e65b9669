package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasics(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v want 2.5", got)
	}
}

func TestVarianceAndStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Fatalf("Variance = %v want 4", got)
	}
	if got := Stddev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("Stddev = %v want 2", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of singleton should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 11 {
		t.Fatalf("min/max/sum wrong: %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max should be infinities")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	// interpolation
	if got := Quantile([]float64{0, 10}, 0.25); !almost(got, 2.5, 1e-12) {
		t.Fatalf("interpolated quantile %v want 2.5", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if !almost(s.P50, 5.5, 1e-12) || !almost(s.Mean, 5.5, 1e-12) {
		t.Fatalf("summary median/mean wrong: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if Pearson(xs, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Fatal("zero-variance input should give 0")
	}
	if Pearson(xs, ys[:3]) != 0 {
		t.Fatal("length mismatch should give 0")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25} // monotone but nonlinear
	if got := Spearman(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("spearman of monotone = %v want 1", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(r[i], want[i], 1e-12) {
			t.Fatalf("ranks = %v want %v", r, want)
		}
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotonePropertyQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is always in [-1, 1] for finite inputs.
func TestPearsonBoundedPropertyQuick(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		xs := make([]float64, 0, len(pairs))
		ys := make([]float64, 0, len(pairs))
		for _, p := range pairs {
			if math.IsNaN(p[0]) || math.IsInf(p[0], 0) || math.IsNaN(p[1]) || math.IsInf(p[1], 0) {
				continue
			}
			// keep magnitudes sane to avoid float overflow in products
			if math.Abs(p[0]) > 1e100 || math.Abs(p[1]) > 1e100 {
				continue
			}
			xs = append(xs, p[0])
			ys = append(ys, p[1])
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
