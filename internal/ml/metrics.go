package ml

// PredictionAccuracy is the paper's accuracy metric for one job:
// min(runtime, predicted) / max(runtime, predicted), in (0, 1], where 1 is
// a perfect prediction. Non-positive inputs are floored at 1 second so the
// ratio stays defined.
func PredictionAccuracy(runtime, predicted float64) float64 {
	if runtime < 1 {
		runtime = 1
	}
	if predicted < 1 {
		predicted = 1
	}
	if runtime < predicted {
		return runtime / predicted
	}
	return predicted / runtime
}

// EvalResult aggregates the paper's two prediction metrics over a test set
// (Figure 12): mean accuracy (higher is better) and the underestimation
// rate (lower is better — underestimates cause bad backfills and walltime
// kills).
type EvalResult struct {
	N                 int
	AvgAccuracy       float64
	UnderestimateRate float64
}

// Evaluate scores predictions against actual runtimes.
func Evaluate(actual, predicted []float64) EvalResult {
	n := len(actual)
	if n == 0 || len(predicted) != n {
		return EvalResult{}
	}
	var accSum float64
	under := 0
	for i := range actual {
		accSum += PredictionAccuracy(actual[i], predicted[i])
		if predicted[i] < actual[i] {
			under++
		}
	}
	return EvalResult{
		N:                 n,
		AvgAccuracy:       accSum / float64(n),
		UnderestimateRate: float64(under) / float64(n),
	}
}
