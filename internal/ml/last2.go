package ml

import "sort"

// Last2 is the classic history-based walltime predictor (Tsafrir et al.):
// the prediction for a user's next job is the average of that user's last
// two observed runtimes. It is not a feature-vector model, so it exposes
// its own API keyed by user history; internal/predict adapts it to the
// paper's evaluation protocol.
type Last2 struct {
	// history holds each user's runtimes in submit order.
	history map[int][]float64
}

// NewLast2 returns an empty predictor.
func NewLast2() *Last2 {
	return &Last2{history: map[int][]float64{}}
}

// Observe appends a completed job's runtime to the user's history.
func (m *Last2) Observe(user int, runtime float64) {
	m.history[user] = append(m.history[user], runtime)
}

// Predict returns the average of the user's last two runtimes, the single
// last runtime for a one-job history, or fallback for an empty history.
func (m *Last2) Predict(user int, fallback float64) float64 {
	h := m.history[user]
	switch len(h) {
	case 0:
		return fallback
	case 1:
		return h[0]
	default:
		return (h[len(h)-1] + h[len(h)-2]) / 2
	}
}

// PredictWithElapsed is the paper's elapsed-time enhancement of Last2
// (Section VI-A): given that the job has already run for elapsed seconds,
// predict from the user's historical runtimes that exceeded elapsed — the
// "if it passed this threshold it will likely reach the next one"
// observation from Figure 11. With no qualifying history it falls back to
// the plain prediction, floored at the elapsed time (the job cannot finish
// in the past).
func (m *Last2) PredictWithElapsed(user int, elapsed, fallback float64) float64 {
	h := m.history[user]
	// median of historical runtimes beyond the elapsed threshold
	var beyond []float64
	for _, r := range h {
		if r > elapsed {
			beyond = append(beyond, r)
		}
	}
	if len(beyond) > 0 {
		sort.Float64s(beyond)
		return beyond[len(beyond)/2]
	}
	p := m.Predict(user, fallback)
	if p < elapsed {
		p = elapsed
	}
	return p
}
