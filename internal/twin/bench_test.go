package twin

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"crosssched/internal/sim"
)

// deepBatches draws a deep session's script: n batches of 150 jobs on a
// cluster of cores cores, each batch's submits spread over the advance
// that follows it — the batch's work at 85% utilization — so the log grows
// deep while the queue stays bounded. It returns the batches and the
// advance after each.
func deepBatches(n, cores int) ([][]JobSpec, []float64) {
	rng := rand.New(rand.NewPCG(1, 2))
	sizes := []int{1, 1, 2, 4, 4, 8, 8, 16, 32, 64}
	batches := make([][]JobSpec, n)
	advances := make([]float64, n)
	now := 0.0
	for b := range batches {
		jobs := make([]JobSpec, 150)
		var work float64
		for i := range jobs {
			run := math.Round(60 * math.Exp(rng.Float64()*math.Log(240))) // 1 min to 4 h
			jobs[i] = JobSpec{Procs: sizes[i%len(sizes)], Run: run, Walltime: math.Round(run * (1 + rng.Float64())), User: rng.IntN(32)}
			work += float64(jobs[i].Procs) * run
		}
		adv := math.Round(work / (0.85 * float64(cores)))
		for i := range jobs {
			jobs[i].Submit = now + math.Round(rng.Float64()*adv)
		}
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
		batches[b], advances[b] = jobs, adv
		now += adv
	}
	return batches, advances
}

// BenchmarkTwinDeepSession runs one whole in-memory session per op: 25
// batches of 150 jobs, each followed by a 4-candidate what-if (one
// candidate fault-injected; all four fork warm checkpoints) and a clock
// advance past the batch, with a Status read after each advance.
func BenchmarkTwinDeepSession(b *testing.B) {
	const cores = 512
	batches, advances := deepBatches(25, cores)
	req := WhatIfRequest{Candidates: []Candidate{
		{Policy: "sjf"}, {Backfill: "conservative"}, {Policy: "saf", Backfill: "easy"},
		{Faults: "mtbf=86400,mttr=3600,frac=0.25,recovery=requeue"},
	}}
	cfg := SessionConfig{Cores: cores, Partitions: 2, Policy: sim.FCFS, Backfill: sim.EASY, Seed: 1}
	limits := Config{}.withDefaults()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newSession("bench", cfg, limits)
		if err != nil {
			b.Fatal(err)
		}
		for k, jobs := range batches {
			if _, err := s.Submit(jobs); err != nil {
				b.Fatal(err)
			}
			if _, err := s.WhatIf(ctx, req); err != nil {
				b.Fatal(err)
			}
			if err := s.AdvanceBy(advances[k]); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Status(); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
	}
}

// BenchmarkCheckpointFork measures one fork of a deep session's baseline
// checkpoint: BenchmarkTwinDeepSession's 25 x 150-job script (3,750 jobs)
// submitted and advanced to its final clock, then forked once per op. A
// fork copies the paused simulator's in-flight state and the per-arrival
// waits and promises, and shares the queue timeline; B/op is the number to
// watch (76 KB on a 2-core Xeon, Go 1.24; 215 KB while forks copied the
// timeline at its capacity).
func BenchmarkCheckpointFork(b *testing.B) {
	const cores = 512
	batches, advances := deepBatches(25, cores)
	cfg := SessionConfig{Cores: cores, Partitions: 2, Policy: sim.FCFS, Backfill: sim.EASY, Seed: 1}
	s, err := newSession("bench", cfg, Config{}.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for k, jobs := range batches {
		if _, err := s.Submit(jobs); err != nil {
			b.Fatal(err)
		}
		if err := s.AdvanceBy(advances[k]); err != nil {
			b.Fatal(err)
		}
	}
	if n := s.base.Len(); n != 3750 {
		b.Fatalf("log holds %d jobs, want 3750", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.base.Fork(); err != nil {
			b.Fatal(err)
		}
	}
}
