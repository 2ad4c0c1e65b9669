package dist

import (
	"fmt"
	"math"
	"sort"
)

// Sampler draws float64 variates from some distribution.
type Sampler interface {
	// Sample returns one variate using rng as the randomness source.
	Sample(rng *RNG) float64
}

// Exponential is an exponential distribution with the given rate (lambda).
type Exponential struct {
	Rate float64 // events per unit time; mean is 1/Rate
}

// Sample returns an exponential variate.
func (d Exponential) Sample(rng *RNG) float64 {
	return -math.Log(rng.Float64Open()) / d.Rate
}

// Mean returns the distribution mean 1/Rate.
func (d Exponential) Mean() float64 { return 1 / d.Rate }

// LogNormal is a log-normal distribution: exp(N(Mu, Sigma^2)).
// Mu and Sigma are the mean and stddev of the underlying normal (log scale).
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// Sample returns a log-normal variate.
func (d LogNormal) Sample(rng *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*rng.Normal())
}

// Median returns exp(Mu), the distribution median.
func (d LogNormal) Median() float64 { return math.Exp(d.Mu) }

// Mean returns exp(Mu + Sigma^2/2).
func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// LogNormalFromMedian builds a LogNormal with the given median and log-scale
// spread sigma. Convenient for calibrating runtimes to a reported median.
func LogNormalFromMedian(median, sigma float64) LogNormal {
	return LogNormal{Mu: math.Log(median), Sigma: sigma}
}

// Weibull is a Weibull distribution with shape K and scale Lambda.
// K < 1 gives heavy-tailed, bursty inter-arrival times typical of job
// submission processes.
type Weibull struct {
	K      float64 // shape
	Lambda float64 // scale
}

// Sample returns a Weibull variate via inverse transform.
func (d Weibull) Sample(rng *RNG) float64 {
	return d.Lambda * math.Pow(-math.Log(rng.Float64Open()), 1/d.K)
}

// Pareto is a Pareto (power-law) distribution with minimum Xm and tail
// exponent Alpha. Used for the extreme upper tail of DL training runtimes.
type Pareto struct {
	Xm    float64 // minimum (scale)
	Alpha float64 // tail index; smaller is heavier
}

// Sample returns a Pareto variate via inverse transform.
func (d Pareto) Sample(rng *RNG) float64 {
	return d.Xm / math.Pow(rng.Float64Open(), 1/d.Alpha)
}

// Uniform is a uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample returns a uniform variate on [Lo, Hi).
func (d Uniform) Sample(rng *RNG) float64 {
	return d.Lo + (d.Hi-d.Lo)*rng.Float64()
}

// Gamma is a gamma distribution with shape Alpha and rate Beta.
type Gamma struct {
	Alpha float64 // shape
	Beta  float64 // rate (1/scale)
}

// Sample returns a gamma variate using the Marsaglia-Tsang method.
func (d Gamma) Sample(rng *RNG) float64 {
	alpha := d.Alpha
	boost := 1.0
	if alpha < 1 {
		// boost via the alpha+1 trick
		boost = math.Pow(rng.Float64Open(), 1/alpha)
		alpha++
	}
	dd := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*dd)
	for {
		var x, v float64
		for {
			x = rng.Normal()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64Open()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return boost * dd * v / d.Beta
		}
	}
}

// TruncatedNormal is a normal distribution clipped (by rejection) to
// [Lo, Hi]. Degenerates gracefully when the window is wide.
type TruncatedNormal struct {
	Mean, Stddev float64
	Lo, Hi       float64
}

// Sample returns a truncated normal variate. Falls back to clamping after
// many rejections to stay O(1) for pathological windows.
func (d TruncatedNormal) Sample(rng *RNG) float64 {
	for i := 0; i < 64; i++ {
		x := d.Mean + d.Stddev*rng.Normal()
		if x >= d.Lo && x <= d.Hi {
			return x
		}
	}
	x := d.Mean + d.Stddev*rng.Normal()
	return math.Min(math.Max(x, d.Lo), d.Hi)
}

// Zipf draws integers in [1, N] with probability proportional to 1/rank^S.
// It models the heavy skew of per-user job-template popularity.
type Zipf struct {
	N int     // number of ranks
	S float64 // exponent; larger is more skewed
	// cdf is the precomputed cumulative mass, built lazily.
	cdf []float64
}

// NewZipf precomputes the CDF for a Zipf distribution over [1, N].
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("dist: Zipf with non-positive N")
	}
	z := &Zipf{N: n, S: s}
	z.cdf = make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		z.cdf[i-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// SampleRank returns a rank in [1, N].
func (z *Zipf) SampleRank(rng *RNG) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= z.N {
		i = z.N - 1
	}
	return i + 1
}

// Mixture samples from a weighted set of component distributions, e.g. a
// short-debug-job mode plus a long-production-job mode.
type Mixture struct {
	Weights    []float64
	Components []Sampler
	cum        []float64
}

// NewMixture builds a mixture; weights are normalized internally.
func NewMixture(weights []float64, components []Sampler) *Mixture {
	if len(weights) != len(components) || len(weights) == 0 {
		panic("dist: mixture weights/components mismatch")
	}
	m := &Mixture{Weights: weights, Components: components}
	m.cum = make([]float64, len(weights))
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("dist: negative mixture weight")
		}
		sum += w
	}
	if sum == 0 {
		panic("dist: zero total mixture weight")
	}
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		m.cum[i] = acc
	}
	return m
}

// Sample draws a component by weight and samples from it.
func (m *Mixture) Sample(rng *RNG) float64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.Components) {
		i = len(m.Components) - 1
	}
	return m.Components[i].Sample(rng)
}

// Categorical draws an index in [0, len(weights)) with the given weights.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a categorical distribution; weights are normalized.
func NewCategorical(weights []float64) *Categorical {
	if len(weights) == 0 {
		panic("dist: empty categorical")
	}
	c := &Categorical{cum: make([]float64, len(weights))}
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("dist: negative categorical weight %v", w))
		}
		sum += w
	}
	if sum == 0 {
		panic("dist: zero total categorical weight")
	}
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		c.cum[i] = acc
	}
	return c
}

// SampleIndex returns an index distributed according to the weights.
func (c *Categorical) SampleIndex(rng *RNG) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(c.cum, u)
	if i >= len(c.cum) {
		i = len(c.cum) - 1
	}
	return i
}

// Constant is a degenerate distribution that always returns V.
type Constant struct {
	V float64
}

// Sample returns the constant value.
func (d Constant) Sample(_ *RNG) float64 { return d.V }

// Clamped wraps a Sampler and clips its output to [Lo, Hi].
type Clamped struct {
	S      Sampler
	Lo, Hi float64
}

// Sample draws from the wrapped sampler and clamps the result.
func (d Clamped) Sample(rng *RNG) float64 {
	x := d.S.Sample(rng)
	if x < d.Lo {
		return d.Lo
	}
	if x > d.Hi {
		return d.Hi
	}
	return x
}
