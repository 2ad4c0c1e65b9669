package stats

import (
	"math"
	"sort"
)

// This file is the out-of-core counterpart of descriptive.go/ecdf.go: the
// streaming trace pipeline summarizes million-to-ten-million-job inputs
// without retaining samples. Moments is exact (Welford one-pass);
// QuantileSketch is a bounded-memory quantile estimator (a merging
// t-digest); StreamSummary glues them into the same Summary shape
// Summarize produces from materialized data.

// Moments accumulates count, mean, variance, min, max, and sum in one pass
// using Welford's update. The zero value is ready to use.
type Moments struct {
	n        int64
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add folds one observation in.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
	m.sum += x
}

// Merge folds another accumulator in (Chan et al. pairwise update), so
// shards of a stream can be summarized independently and combined.
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.mean += d * float64(o.n) / float64(n)
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.sum += o.sum
	m.n = n
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the running mean, or 0 before any observation (matching
// Mean on an empty slice).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.mean
}

// Variance returns the population variance, or 0 for n < 2 (matching
// Variance).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Stddev returns the population standard deviation.
func (m *Moments) Stddev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation, or +Inf before any (matching Min).
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return math.Inf(1)
	}
	return m.min
}

// Max returns the largest observation, or -Inf before any (matching Max).
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return math.Inf(-1)
	}
	return m.max
}

// Sum returns the running sum.
func (m *Moments) Sum() float64 { return m.sum }

// defaultSketchCompression bounds QuantileSketch at roughly 2×compression
// centroids; 200 keeps the structure around a few KB with observed rank
// error well under 1% at the mid-quantiles and tighter in the tails.
const defaultSketchCompression = 200

// QuantileSketch is a merging t-digest: a bounded set of (mean, weight)
// centroids whose sizes follow the scale function k(q) = δ/2π·asin(2q−1),
// so centroids stay tiny near the tails (keeping P99/P1 sharp) and wide in
// the middle. Adds buffer and periodically merge-compress; memory is
// O(compression) regardless of stream length.
type QuantileSketch struct {
	compression float64
	means       []float64 // centroid means, ascending
	weights     []float64
	total       float64 // total weight in centroids
	buf         []float64
	min, max    float64
	n           int64
	scratchM    []float64
	scratchW    []float64
}

// NewQuantileSketch returns a sketch; compression <= 0 selects the default.
func NewQuantileSketch(compression float64) *QuantileSketch {
	if compression <= 0 {
		compression = defaultSketchCompression
	}
	return &QuantileSketch{
		compression: compression,
		buf:         make([]float64, 0, int(8*compression)),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add folds one observation in.
func (s *QuantileSketch) Add(x float64) {
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	s.n++
	s.buf = append(s.buf, x)
	if len(s.buf) == cap(s.buf) {
		s.flush()
	}
}

// N returns the number of observations.
func (s *QuantileSketch) N() int64 { return s.n }

func (s *QuantileSketch) scale(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return s.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

func (s *QuantileSketch) scaleInv(k float64) float64 {
	q := (math.Sin(2*math.Pi*k/s.compression) + 1) / 2
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// flush merge-compresses the buffered observations into the centroid set.
func (s *QuantileSketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	total := s.total + float64(len(s.buf))
	outM := s.scratchM[:0]
	outW := s.scratchW[:0]

	// Two-way merge of the ascending centroid list and the sorted buffer,
	// greedily coalescing runs whose combined quantile span fits one unit
	// of the scale function.
	ci, bi := 0, 0
	nextPoint := func() (float64, float64) {
		if ci < len(s.means) && (bi >= len(s.buf) || s.means[ci] <= s.buf[bi]) {
			m, w := s.means[ci], s.weights[ci]
			ci++
			return m, w
		}
		x := s.buf[bi]
		bi++
		return x, 1
	}
	curM, curW := nextPoint()
	wSoFar := 0.0
	qLimit := s.scaleInv(s.scale(0) + 1)
	for ci < len(s.means) || bi < len(s.buf) {
		m, w := nextPoint()
		if (wSoFar+curW+w)/total <= qLimit {
			curW += w
			curM += (m - curM) * w / curW
			continue
		}
		outM = append(outM, curM)
		outW = append(outW, curW)
		wSoFar += curW
		qLimit = s.scaleInv(s.scale(wSoFar/total) + 1)
		curM, curW = m, w
	}
	outM = append(outM, curM)
	outW = append(outW, curW)

	s.scratchM, s.means = s.means[:0], outM
	s.scratchW, s.weights = s.weights[:0], outW
	s.total = total
	s.buf = s.buf[:0]
}

// Quantile returns the estimated q-th quantile, or 0 before any observation
// (matching Quantile on an empty slice). Estimates interpolate between
// centroid midpoints and are clamped to the observed [min, max].
func (s *QuantileSketch) Quantile(q float64) float64 {
	s.flush()
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	target := q * s.total
	prevM, prevC := s.min, 0.0
	cum := 0.0
	for i := range s.means {
		c := cum + s.weights[i]/2
		if target < c {
			if c == prevC {
				return s.means[i]
			}
			f := (target - prevC) / (c - prevC)
			return prevM + f*(s.means[i]-prevM)
		}
		prevM, prevC = s.means[i], c
		cum += s.weights[i]
	}
	if s.total == prevC {
		return s.max
	}
	f := (target - prevC) / (s.total - prevC)
	return prevM + f*(s.max-prevM)
}

// StreamSummary accumulates a Summary without retaining samples: count,
// mean, min, max, stddev, and sum are exact (Moments); the quantile fields
// come from a QuantileSketch and carry its rank-error bound.
type StreamSummary struct {
	mom    Moments
	sketch *QuantileSketch
}

// NewStreamSummary returns an accumulator with the default sketch
// compression.
func NewStreamSummary() *StreamSummary {
	return &StreamSummary{sketch: NewQuantileSketch(0)}
}

// Add folds one observation in.
func (s *StreamSummary) Add(x float64) {
	s.mom.Add(x)
	s.sketch.Add(x)
}

// N returns the number of observations.
func (s *StreamSummary) N() int64 { return s.mom.N() }

// Summary renders the accumulated state in the same shape Summarize
// produces. Empty input yields the zero Summary, like Summarize.
func (s *StreamSummary) Summary() Summary {
	if s.mom.N() == 0 {
		return Summary{}
	}
	return Summary{
		N:      int(s.mom.N()),
		Mean:   s.mom.Mean(),
		Min:    s.mom.Min(),
		P25:    s.sketch.Quantile(0.25),
		P50:    s.sketch.Quantile(0.50),
		P75:    s.sketch.Quantile(0.75),
		P90:    s.sketch.Quantile(0.90),
		P99:    s.sketch.Quantile(0.99),
		Max:    s.mom.Max(),
		Stddev: s.mom.Stddev(),
	}
}
