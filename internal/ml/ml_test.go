package ml

import (
	"math"
	"testing"
	"testing/quick"

	"crosssched/internal/dist"
)

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solution %v want [1 3]", x)
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// zero on the diagonal forces a pivot swap
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("solution %v want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solveLinear(a, b); err == nil {
		t.Fatal("singular system accepted")
	}
	if _, err := solveLinear(nil, nil); err == nil {
		t.Fatal("empty system accepted")
	}
}

func TestNormalFunctions(t *testing.T) {
	if math.Abs(normalCDF(0)-0.5) > 1e-12 {
		t.Fatal("Phi(0) != 0.5")
	}
	if math.Abs(normalCDF(1.96)-0.975) > 1e-3 {
		t.Fatalf("Phi(1.96) = %v", normalCDF(1.96))
	}
	if math.Abs(normalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatal("phi(0) wrong")
	}
	// logNormalSF matches direct computation in the stable region
	for _, z := range []float64{-2, 0, 1, 3, 4.9} {
		want := math.Log(1 - normalCDF(z))
		if got := logNormalSF(z); math.Abs(got-want) > 1e-6 {
			t.Fatalf("logSF(%v) = %v want %v", z, got, want)
		}
	}
	// large z stays finite and decreasing
	prev := logNormalSF(5)
	for _, z := range []float64{6, 8, 10, 20} {
		got := logNormalSF(z)
		if math.IsNaN(got) || math.IsInf(got, 0) || got >= prev {
			t.Fatalf("logSF(%v) = %v not finite/decreasing", z, got)
		}
		prev = got
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		z := normalQuantile(p)
		if math.Abs(normalCDF(z)-p) > 1e-6 {
			t.Fatalf("quantile(%v) = %v round trips to %v", p, z, normalCDF(z))
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Fatal("extreme quantiles should be infinite")
	}
}

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Dataset{
		{X: [][]float64{{1}}, Y: []float64{1, 2}},
		{X: nil, Y: nil},
		{X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}},
		{X: [][]float64{{math.NaN()}}, Y: []float64{1}},
		{X: [][]float64{{1}}, Y: []float64{math.Inf(1)}},
		{X: [][]float64{{1}}, Y: []float64{1}, Censored: []bool{true, false}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Fatalf("bad dataset %d accepted", i)
		}
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 100}, {3, 100}, {5, 100}}
	s := FitScaler(x)
	z := s.TransformAll(x)
	// feature 0: mean 3, std sqrt(8/3)
	if math.Abs(z[0][0]+z[2][0]) > 1e-9 || z[1][0] != 0 {
		t.Fatalf("standardization wrong: %v", z)
	}
	// constant feature: std floored at 1, so transformed values are 0
	for i := range z {
		if z[i][1] != 0 {
			t.Fatalf("constant feature not zeroed: %v", z[i][1])
		}
	}
}

func TestMetrics(t *testing.T) {
	if got := PredictionAccuracy(100, 50); got != 0.5 {
		t.Fatalf("accuracy %v want 0.5", got)
	}
	if got := PredictionAccuracy(50, 100); got != 0.5 {
		t.Fatalf("accuracy symmetric %v want 0.5", got)
	}
	if got := PredictionAccuracy(100, 100); got != 1 {
		t.Fatalf("perfect accuracy %v", got)
	}
	if got := PredictionAccuracy(0, 0); got != 1 {
		t.Fatalf("floored accuracy %v", got)
	}
	r := Evaluate([]float64{10, 10, 10, 10}, []float64{5, 20, 10, 9})
	if r.N != 4 {
		t.Fatal("eval count wrong")
	}
	if math.Abs(r.UnderestimateRate-0.5) > 1e-12 {
		t.Fatalf("underestimate rate %v want 0.5", r.UnderestimateRate)
	}
	if r.AvgAccuracy <= 0 || r.AvgAccuracy > 1 {
		t.Fatalf("avg accuracy %v out of range", r.AvgAccuracy)
	}
	if Evaluate(nil, nil).N != 0 {
		t.Fatal("empty eval should be zero")
	}
}

// synthDataset builds y = exp(a*x0 + b*x1 + noise) style runtimes so all
// models face the same log-linear ground truth.
func synthDataset(n int, seed uint64, noise float64) *Dataset {
	r := dist.NewRNG(seed)
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		x0 := r.Float64() * 4
		x1 := r.Float64() * 2
		logy := 2 + 0.8*x0 + 0.5*x1 + noise*r.Normal()
		ds.X = append(ds.X, []float64{x0, x1})
		ds.Y = append(ds.Y, math.Expm1(logy))
	}
	return ds
}

// fitAndScore trains on 80% and returns eval on the held-out 20%.
func fitAndScore(t *testing.T, m Model, ds *Dataset) EvalResult {
	t.Helper()
	n := ds.Len()
	cut := n * 8 / 10
	train := &Dataset{X: ds.X[:cut], Y: ds.Y[:cut]}
	if ds.Censored != nil {
		train.Censored = ds.Censored[:cut]
	}
	if err := m.Fit(train); err != nil {
		t.Fatalf("%s fit: %v", m.Name(), err)
	}
	var actual, pred []float64
	for i := cut; i < n; i++ {
		actual = append(actual, ds.Y[i])
		pred = append(pred, m.Predict(ds.X[i]))
	}
	return Evaluate(actual, pred)
}

func TestLinearRegressionRecoversLogLinear(t *testing.T) {
	ds := synthDataset(500, 3, 0.05)
	m := &LinearRegression{LogTarget: true}
	res := fitAndScore(t, m, ds)
	if res.AvgAccuracy < 0.9 {
		t.Fatalf("LR accuracy %v want >= 0.9", res.AvgAccuracy)
	}
}

func TestLinearRegressionRawTarget(t *testing.T) {
	// y = 3*x0 + 2*x1 + 5 exactly
	ds := &Dataset{}
	r := dist.NewRNG(9)
	for i := 0; i < 100; i++ {
		x0, x1 := r.Float64()*10, r.Float64()*10
		ds.X = append(ds.X, []float64{x0, x1})
		ds.Y = append(ds.Y, 3*x0+2*x1+5)
	}
	m := &LinearRegression{}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]float64{1, 1})
	if math.Abs(got-10) > 1e-6 {
		t.Fatalf("exact linear fit predicts %v want 10", got)
	}
}

func TestLinearRegressionRejectsTiny(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1, 2}}, Y: []float64{3}}
	if err := (&LinearRegression{}).Fit(ds); err == nil {
		t.Fatal("underdetermined fit accepted")
	}
}

func TestGBRTRecoversNonlinear(t *testing.T) {
	// step function: y = 100 if x0 < 2 else 10000 — trees should nail this
	r := dist.NewRNG(11)
	ds := &Dataset{}
	for i := 0; i < 600; i++ {
		x0 := r.Float64() * 4
		y := 100.0
		if x0 >= 2 {
			y = 10000
		}
		ds.X = append(ds.X, []float64{x0, r.Float64()})
		ds.Y = append(ds.Y, y)
	}
	m := &GBRT{Trees: 60, Depth: 3}
	res := fitAndScore(t, m, ds)
	if res.AvgAccuracy < 0.9 {
		t.Fatalf("GBRT accuracy %v want >= 0.9 on a step function", res.AvgAccuracy)
	}
}

func TestGBRTSubsampleAndDeterminism(t *testing.T) {
	ds := synthDataset(300, 5, 0.1)
	a := &GBRT{Trees: 40, Depth: 3, Subsample: 0.7, Seed: 1}
	b := &GBRT{Trees: 40, Depth: 3, Subsample: 0.7, Seed: 1}
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ds); err != nil {
		t.Fatal(err)
	}
	probe := []float64{2, 1}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("same-seed GBRT not deterministic")
	}
}

func TestGBRTRejectsTiny(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}}, Y: []float64{1, 2}}
	if err := (&GBRT{MinChild: 5}).Fit(ds); err == nil {
		t.Fatal("tiny dataset accepted")
	}
}

func TestMLPRecoversLogLinear(t *testing.T) {
	ds := synthDataset(500, 7, 0.05)
	m := &MLP{Hidden: []int{16}, Epochs: 150, Seed: 2}
	res := fitAndScore(t, m, ds)
	if res.AvgAccuracy < 0.8 {
		t.Fatalf("MLP accuracy %v want >= 0.8", res.AvgAccuracy)
	}
}

func TestMLPDeterminism(t *testing.T) {
	ds := synthDataset(200, 8, 0.1)
	a := &MLP{Hidden: []int{8}, Epochs: 30, Seed: 3}
	b := &MLP{Hidden: []int{8}, Epochs: 30, Seed: 3}
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ds); err != nil {
		t.Fatal(err)
	}
	probe := []float64{1, 1}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("same-seed MLP not deterministic")
	}
}

func TestTobitUncensoredMatchesLR(t *testing.T) {
	ds := synthDataset(400, 13, 0.1)
	m := &Tobit{Epochs: 600, LR: 0.05}
	res := fitAndScore(t, m, ds)
	if res.AvgAccuracy < 0.85 {
		t.Fatalf("Tobit accuracy %v want >= 0.85", res.AvgAccuracy)
	}
}

func TestTobitCensoringRaisesPredictions(t *testing.T) {
	// Censor the top half of targets at their observed value; the Tobit
	// model should learn the latent mean is above the censored values,
	// predicting higher than a model that takes them at face value.
	r := dist.NewRNG(17)
	ds := &Dataset{}
	for i := 0; i < 400; i++ {
		x0 := r.Float64() * 2
		y := math.Expm1(3 + x0 + 0.3*r.Normal())
		ds.X = append(ds.X, []float64{x0})
		ds.Y = append(ds.Y, y)
		ds.Censored = append(ds.Censored, false)
	}
	// censored copy: cut every target in half and mark censored
	cens := &Dataset{}
	for i := range ds.X {
		cens.X = append(cens.X, ds.X[i])
		cens.Y = append(cens.Y, ds.Y[i]/2)
		cens.Censored = append(cens.Censored, true)
	}
	naive := &Tobit{Epochs: 500}
	if err := naive.Fit(&Dataset{X: cens.X, Y: cens.Y}); err != nil {
		t.Fatal(err)
	}
	aware := &Tobit{Epochs: 500}
	if err := aware.Fit(cens); err != nil {
		t.Fatal(err)
	}
	probe := []float64{1}
	if aware.Predict(probe) <= naive.Predict(probe) {
		t.Fatalf("censoring-aware prediction %v not above naive %v",
			aware.Predict(probe), naive.Predict(probe))
	}
}

func TestTobitQuantileShiftsPredictions(t *testing.T) {
	ds := synthDataset(300, 19, 0.3)
	med := &Tobit{Epochs: 400, PredictQuantile: 0.5}
	hi := &Tobit{Epochs: 400, PredictQuantile: 0.9}
	if err := med.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := hi.Fit(ds); err != nil {
		t.Fatal(err)
	}
	probe := []float64{2, 1}
	if hi.Predict(probe) <= med.Predict(probe) {
		t.Fatal("higher quantile should predict higher")
	}
}

func TestLast2(t *testing.T) {
	m := NewLast2()
	if got := m.Predict(1, 42); got != 42 {
		t.Fatalf("empty history fallback %v want 42", got)
	}
	m.Observe(1, 100)
	if got := m.Predict(1, 0); got != 100 {
		t.Fatalf("single history %v want 100", got)
	}
	m.Observe(1, 200)
	if got := m.Predict(1, 0); got != 150 {
		t.Fatalf("last2 %v want 150", got)
	}
	m.Observe(1, 300)
	if got := m.Predict(1, 0); got != 250 {
		t.Fatalf("last2 rolling %v want 250", got)
	}
	if len(m.history[1]) != 3 || len(m.history[2]) != 0 {
		t.Fatal("history lengths wrong")
	}
}

func TestLast2WithElapsed(t *testing.T) {
	m := NewLast2()
	// user's jobs: many short (10s) failures, some hour-long successes
	for i := 0; i < 5; i++ {
		m.Observe(1, 10)
	}
	for i := 0; i < 4; i++ {
		m.Observe(1, 3600)
	}
	// plain last2 predicts ~3600 here, but with a fresh user whose last
	// two jobs were short, elapsed conditioning matters:
	m2 := NewLast2()
	m2.Observe(2, 3600)
	m2.Observe(2, 10)
	m2.Observe(2, 10)
	plain := m2.Predict(2, 0) // (10+10)/2 = 10
	if plain != 10 {
		t.Fatalf("plain last2 %v want 10", plain)
	}
	// the job has already run 60s, so the short-job hypothesis is dead
	withE := m2.PredictWithElapsed(2, 60, 0)
	if withE != 3600 {
		t.Fatalf("elapsed-aware %v want 3600", withE)
	}
	// no history above elapsed: fall back to max(plain, elapsed)
	if got := m2.PredictWithElapsed(2, 10000, 0); got != 10000 {
		t.Fatalf("beyond-history prediction %v want 10000", got)
	}
}

// Property: model predictions are finite for arbitrary finite probes.
func TestPredictionsFinitePropertyQuick(t *testing.T) {
	ds := synthDataset(200, 23, 0.2)
	models := []Model{
		&LinearRegression{LogTarget: true},
		&GBRT{Trees: 20, Depth: 3},
		&MLP{Hidden: []int{8}, Epochs: 20, Seed: 5},
		&Tobit{Epochs: 100},
	}
	for _, m := range models {
		if err := m.Fit(ds); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		// keep probes in a plausible range
		x := []float64{math.Mod(math.Abs(a), 100), math.Mod(math.Abs(b), 100)}
		for _, m := range models {
			p := m.Predict(x)
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
