package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almost(got, c.want, 1e-12) {
			t.Fatalf("At(%v) = %v want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(1) != 0 || e.Inverse(0.5) != 0 || e.N() != 0 {
		t.Fatal("empty ECDF should be all zeros")
	}
	xs, ps := e.Points(10)
	if xs != nil || ps != nil {
		t.Fatal("empty ECDF points should be nil")
	}
}

func TestECDFInverse(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if got := e.Inverse(0.5); got != 30 {
		t.Fatalf("Inverse(0.5) = %v want 30", got)
	}
	if got := e.Inverse(0); got != 10 {
		t.Fatalf("Inverse(0) = %v want 10", got)
	}
	if got := e.Inverse(1); got != 50 {
		t.Fatalf("Inverse(1) = %v want 50", got)
	}
	if got := e.Inverse(0.2); got != 10 {
		t.Fatalf("Inverse(0.2) = %v want 10", got)
	}
}

func TestECDFPointsThinningAndTerminal(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i)
	}
	e := NewECDF(xs)
	px, pp := e.Points(100)
	if len(px) > 120 {
		t.Fatalf("points not thinned: %d", len(px))
	}
	if pp[len(pp)-1] != 1 {
		t.Fatalf("last point p = %v want 1", pp[len(pp)-1])
	}
	if px[len(px)-1] != 9999 {
		t.Fatalf("last point x = %v want 9999", px[len(px)-1])
	}
}

func TestLogGrid(t *testing.T) {
	g := LogGrid(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if !almost(g[i], want[i], 1e-9) {
			t.Fatalf("LogGrid = %v want %v", g, want)
		}
	}
	if LogGrid(0, 10, 5) != nil || LogGrid(10, 1, 5) != nil || LogGrid(1, 10, 1) != nil {
		t.Fatal("invalid LogGrid inputs should return nil")
	}
}

func TestLinGrid(t *testing.T) {
	g := LinGrid(0, 10, 3)
	want := []float64{0, 5, 10}
	for i := range want {
		if !almost(g[i], want[i], 1e-12) {
			t.Fatalf("LinGrid = %v want %v", g, want)
		}
	}
	if LinGrid(0, 10, 1) != nil || LinGrid(10, 0, 3) != nil {
		t.Fatal("invalid LinGrid inputs should return nil")
	}
}

// Property: ECDF.At is monotone nondecreasing in x and within [0,1].
func TestECDFMonotonePropertyQuick(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		e := NewECDF(xs)
		cleanProbes := make([]float64, 0, len(probes))
		for _, p := range probes {
			if !math.IsNaN(p) && !math.IsInf(p, 0) {
				cleanProbes = append(cleanProbes, p)
			}
		}
		// sort probes ascending and check monotonicity
		for i := 0; i < len(cleanProbes); i++ {
			for j := i + 1; j < len(cleanProbes); j++ {
				if cleanProbes[j] < cleanProbes[i] {
					cleanProbes[i], cleanProbes[j] = cleanProbes[j], cleanProbes[i]
				}
			}
		}
		prev := 0.0
		for _, p := range cleanProbes {
			v := e.At(p)
			if v < prev-1e-12 || v < 0 || v > 1 {
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

func TestHourlyCounts(t *testing.T) {
	// events at t=0h, 1h, 25h with startHour=8 -> hours 8, 9, 9
	counts := HourlyCounts([]float64{0, 3600, 25 * 3600}, 8)
	if counts[8] != 1 || counts[9] != 2 {
		t.Fatalf("HourlyCounts = %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("total = %d want 3", total)
	}
}

func TestMaxMinRatio(t *testing.T) {
	var c [24]int
	for i := range c {
		c[i] = 10
	}
	c[12] = 100
	if got := MaxMinRatio(c); !almost(got, 10, 1e-12) {
		t.Fatalf("MaxMinRatio = %v want 10", got)
	}
	var zero [24]int
	if MaxMinRatio(zero) != 0 {
		t.Fatal("all-zero ratio should be 0")
	}
	zero[0] = 5
	if !math.IsInf(MaxMinRatio(zero), 1) {
		t.Fatal("zero-min ratio should be +Inf")
	}
}

func TestViolinSummaryAndMode(t *testing.T) {
	// bimodal sample: cluster at ~10 and ~1000, log-scale violin
	xs := make([]float64, 0, 2000)
	for i := 0; i < 1500; i++ {
		xs = append(xs, 10+float64(i%5))
	}
	for i := 0; i < 500; i++ {
		xs = append(xs, 1000+float64(i%50))
	}
	v := NewViolin(xs, 200, true)
	if v.Summary.N != 2000 {
		t.Fatalf("violin N = %d", v.Summary.N)
	}
	best := 0
	for i, d := range v.Density {
		if d > v.Density[best] {
			best = i
		}
	}
	if mode := v.Grid[best]; mode < 5 || mode > 50 {
		t.Fatalf("violin mode %v should be near the dominant cluster ~10-15", mode)
	}
	if len(v.Grid) != len(v.Density) {
		t.Fatal("grid/density length mismatch")
	}
	for _, d := range v.Density {
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("invalid density %v", d)
		}
	}
}

func TestViolinEmptyAndNonPositiveLog(t *testing.T) {
	v := NewViolin([]float64{-1, 0}, 50, true)
	if v.Summary.N != 0 || len(v.Grid) != 0 {
		t.Fatal("violin of non-positive sample under log should be empty")
	}
}

func TestViolinConstantSample(t *testing.T) {
	v := NewViolin([]float64{5, 5, 5, 5}, 50, false)
	if v.Summary.P50 != 5 {
		t.Fatalf("constant violin median %v", v.Summary.P50)
	}
	for _, d := range v.Density {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("constant sample produced invalid density %v", d)
		}
	}
}
