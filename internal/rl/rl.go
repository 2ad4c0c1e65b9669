// Package rl trains a learned linear scheduling policy in the simulator —
// the lineage the paper's simulator (SchedGym) was built for (RLScheduler,
// SchedInspector, and the RL backfilling study the paper cites). The
// policy scores each waiting job from simple features and the queue is
// served in ascending-score order; training uses evolution strategies
// (ES), which needs only whole-simulation fitness values and is fully
// deterministic under a seed.
package rl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"crosssched/internal/dist"
	"crosssched/internal/par"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// FeatureDim is the policy's feature width.
const FeatureDim = 5

// LinearPolicy scores a pending job as W . features(job, now) with
// features [log1p(reqTime), log1p(procs), log1p(wait), log1p(area), 1].
// Lower score schedules first.
type LinearPolicy struct {
	W [FeatureDim]float64
}

// Features computes the score inputs for one queued job at time now.
func Features(reqTime float64, procs int, submit, now float64) [FeatureDim]float64 {
	wait := now - submit
	if wait < 0 {
		wait = 0
	}
	if reqTime < 1 {
		reqTime = 1
	}
	return [FeatureDim]float64{
		math.Log1p(reqTime),
		math.Log1p(float64(procs)),
		math.Log1p(wait),
		math.Log1p(reqTime * float64(procs)),
		1,
	}
}

// Score computes the policy's priority value (lower first).
func (p *LinearPolicy) Score(reqTime float64, procs int, submit, now float64) float64 {
	f := Features(reqTime, procs, submit, now)
	s := 0.0
	for i := range f {
		s += p.W[i] * f[i]
	}
	return s
}

// Options builds simulator options that use this policy for ordering.
func (p *LinearPolicy) Options(backfill sim.BackfillKind) sim.Options {
	return sim.Options{
		Policy:      sim.FCFS, // tie-break only; CustomScore dominates
		Backfill:    backfill,
		CustomScore: p.Score,
	}
}

// TrainConfig parameterizes the ES search.
type TrainConfig struct {
	// Iterations of the ES loop (default 30).
	Iterations int
	// Population is the number of perturbation PAIRS per iteration
	// (antithetic sampling; default 8 pairs = 16 evaluations).
	Population int
	// Sigma is the perturbation scale (default 0.5).
	Sigma float64
	// LR is the update step size (default 0.3).
	LR float64
	// Seed drives the perturbations.
	Seed uint64
	// Backfill used during training and evaluation. The zero value is
	// sim.NoBackfill; set sim.EASY to train against a backfilling
	// scheduler (and evaluate the resulting policy the same way).
	Backfill sim.BackfillKind
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Iterations <= 0 {
		c.Iterations = 30
	}
	if c.Population <= 0 {
		c.Population = 8
	}
	if c.Sigma <= 0 {
		c.Sigma = 0.5
	}
	if c.LR <= 0 {
		c.LR = 0.3
	}
	return c
}

// Fitness evaluates a policy on a trace: negative average bounded slowdown
// (higher is better). The underlying simulation aborts at its next event
// once ctx is canceled.
func Fitness(ctx context.Context, p *LinearPolicy, tr *trace.Trace, backfill sim.BackfillKind) (float64, error) {
	res, err := sim.RunContext(ctx, tr, p.Options(backfill))
	if err != nil {
		return 0, err
	}
	return -res.AvgBsld, nil
}

// EvaluatePopulation computes the fitness of every candidate policy on the
// trace, in parallel on the shared worker pool (ES generations are
// embarrassingly parallel and each evaluation is a full simulation).
// Results align with the input; on error the lowest-index failure is
// returned. This is the batch-execution hot loop of ES training, and the
// sweep benchmark BenchmarkRLFitness measures exactly this call.
func EvaluatePopulation(ctx context.Context, policies []LinearPolicy, tr *trace.Trace, backfill sim.BackfillKind) ([]float64, error) {
	fits := make([]float64, len(policies))
	err := par.ForEach(ctx, len(policies), func(ctx context.Context, i int) error {
		var err error
		fits[i], err = Fitness(ctx, &policies[i], tr, backfill)
		return err
	})
	if err != nil {
		return nil, err
	}
	return fits, nil
}

// Train searches for a policy minimizing average bounded slowdown on the
// training trace. It returns the best policy found and the per-iteration
// best-fitness history (as avg bsld, lower is better). The context is
// checked once per ES iteration and inside every fitness simulation, so a
// canceled training run returns promptly with a wrapped context error
// instead of finishing the generation.
func Train(ctx context.Context, tr *trace.Trace, cfg TrainConfig) (*LinearPolicy, []float64, error) {
	if tr.Len() < 10 {
		return nil, nil, errors.New("rl: training trace too small")
	}
	cfg = cfg.withDefaults()
	rng := dist.NewRNG(cfg.Seed + 7)

	w := [FeatureDim]float64{} // zero weights = FCFS (tie-break) start
	best := w
	bestFit, err := Fitness(ctx, &LinearPolicy{W: w}, tr, cfg.Backfill)
	if err != nil {
		return nil, nil, err
	}
	history := []float64{-bestFit}

	type sample struct {
		eps [FeatureDim]float64
		w   [FeatureDim]float64
		fit float64
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("rl: training canceled at iteration %d: %w", iter, err)
		}
		// Draw all perturbations up front (single RNG stream keeps the
		// run deterministic), then evaluate the population in parallel —
		// ES is embarrassingly parallel and each evaluation is a full
		// simulation.
		samples := make([]sample, 0, 2*cfg.Population)
		for k := 0; k < cfg.Population; k++ {
			var eps [FeatureDim]float64
			for i := range eps {
				eps[i] = rng.Normal()
			}
			for _, sign := range [2]float64{1, -1} { // antithetic pair
				var s sample
				for i := range s.w {
					s.eps[i] = sign * eps[i]
					s.w[i] = w[i] + sign*cfg.Sigma*eps[i]
				}
				samples = append(samples, s)
			}
		}
		cands := make([]LinearPolicy, len(samples))
		for k := range samples {
			cands[k] = LinearPolicy{W: samples[k].w}
		}
		fits, err := EvaluatePopulation(ctx, cands, tr, cfg.Backfill)
		if err != nil {
			return nil, nil, err
		}
		for k := range samples {
			samples[k].fit = fits[k]
			if samples[k].fit > bestFit {
				bestFit = samples[k].fit
				best = samples[k].w
			}
		}
		// Rank-normalize fitness (robust to outliers), then take the ES
		// gradient step.
		order := make([]int, len(samples))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return samples[order[a]].fit < samples[order[b]].fit
		})
		ranks := make([]float64, len(samples))
		for pos, idx := range order {
			ranks[idx] = float64(pos)/float64(len(samples)-1) - 0.5
		}
		for i := 0; i < FeatureDim; i++ {
			g := 0.0
			for k, s := range samples {
				g += ranks[k] * s.eps[i]
			}
			w[i] += cfg.LR * g / (float64(len(samples)) * cfg.Sigma)
		}
		if fit, err := Fitness(ctx, &LinearPolicy{W: w}, tr, cfg.Backfill); err == nil && fit > bestFit {
			bestFit = fit
			best = w
		}
		history = append(history, -bestFit)
	}
	return &LinearPolicy{W: best}, history, nil
}
