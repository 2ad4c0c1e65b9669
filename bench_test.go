// Package crosssched's root benchmarks regenerate every table and figure
// in the paper's evaluation (see DESIGN.md's per-experiment index). Each
// benchmark measures the full regeneration of one experiment — workload
// generation is cached per suite, so iterations measure the analysis or
// simulation itself. Run all of them with:
//
//	go test -bench=. -benchmem
//
// and print the figure data itself with cmd/lumos.
package crosssched

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"crosssched/internal/check"
	"crosssched/internal/dist"
	"crosssched/internal/experiments"
	"crosssched/internal/fault"
	"crosssched/internal/figures"
	"crosssched/internal/obs"
	"crosssched/internal/predict"
	"crosssched/internal/rl"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// benchSuite is shared across benchmarks so traces generate once.
var (
	benchSuiteOnce sync.Once
	benchSuite     *figures.Suite
)

func suite(b *testing.B) *figures.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		benchSuite = figures.NewSuite(figures.Config{Days: 5, SimDays: 4, Seed: 1})
	})
	return benchSuite
}

// prime generates all characterization traces outside the timed region
// (concurrently; generators are independent).
func prime(b *testing.B, s *figures.Suite) {
	b.Helper()
	if err := s.Prewarm(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTableI(b *testing.B) {
	s := suite(b)
	prime(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TableI(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Geometries(b *testing.B) {
	s := suite(b)
	prime(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2CoreHours(b *testing.B) {
	s := suite(b)
	prime(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3to5Scheduling(b *testing.B) {
	s := suite(b)
	prime(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3to5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6and7Failures(b *testing.B) {
	s := suite(b)
	prime(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6and7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8UserGroups(b *testing.B) {
	s := suite(b)
	prime(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9and10QueueBehavior(b *testing.B) {
	s := suite(b)
	prime(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9and10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11UserStatus(b *testing.B) {
	s := suite(b)
	prime(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Prediction measures the full five-model prediction
// experiment on a compact Philly-like trace (the paper's Figure 12).
func BenchmarkFig12Prediction(b *testing.B) {
	p := synth.Philly(2)
	tr, err := p.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predict.Run(tr, predict.Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIAdaptiveBackfill measures the relaxed-vs-adaptive
// comparison across the three walltime-bearing systems.
func BenchmarkTableIIAdaptiveBackfill(b *testing.B) {
	s := suite(b)
	for _, name := range figures.TableIISystems {
		if _, err := s.SimTrace(name); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component benchmarks: the substrates the experiments are built on.

func benchTrace(b *testing.B, name string, days float64) *trace.Trace {
	b.Helper()
	p, err := synth.ByName(name, days)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := p.Generate(7)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkGenerateHelios measures raw trace generation throughput.
func BenchmarkGenerateHelios(b *testing.B) {
	p := synth.Helios(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEASY measures the scheduling simulator on a congested
// Theta-like workload with EASY backfilling.
func BenchmarkSimulatorEASY(b *testing.B) {
	tr := benchTrace(b, "Theta", 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorConservative measures the heavier conservative
// backfilling planner. This is the benchmark the incremental reservation
// plan's >= 4x acceptance bar was measured on (DESIGN.md, Performance;
// the benchmark snapshots behind it are in git history).
func BenchmarkSimulatorConservative(b *testing.B) {
	tr := benchTrace(b, "Theta", 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, sim.Options{Policy: sim.FCFS, Backfill: sim.Conservative}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorConservativeFaults measures conservative backfilling
// with fault injection enabled: capacity drains and interrupts disable plan
// persistence, so this pins the from-scratch fallback path (and documents
// what fault runs cost relative to the incremental fast path above).
func BenchmarkSimulatorConservativeFaults(b *testing.B) {
	tr := benchTrace(b, "Theta", 8)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.Conservative,
		Faults: &fault.Config{
			Seed: 13, MTBF: 20000, MTTR: 4000, OutageFrac: 0.25, InterruptProb: 0.02,
			Recovery: fault.RecoveryRequeue, RetryCap: 3,
		}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design-choice studies beyond the paper's
// headline tables; see internal/experiments).

// BenchmarkAblationPolicyMatrix measures the policy x backfilling grid.
func BenchmarkAblationPolicyMatrix(b *testing.B) {
	tr := benchTrace(b, "Theta", 4)
	pols := []sim.Policy{sim.FCFS, sim.SJF, sim.Fair}
	bfs := []sim.BackfillKind{sim.NoBackfill, sim.EASY}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PolicyMatrix(tr, pols, bfs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRelaxSweep measures the relaxation-factor sweep.
func BenchmarkAblationRelaxSweep(b *testing.B) {
	tr := benchTrace(b, "Theta", 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RelaxFactorSweep(tr, []float64{0.05, 0.1, 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPredictionBackfill measures the Tsafrir-style
// estimate-source comparison.
func BenchmarkAblationPredictionBackfill(b *testing.B) {
	tr := benchTrace(b, "Theta", 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PredictionBackfill(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3VCWaste measures the cross-VC stranding analysis on the
// partitioned Philly workload.
func BenchmarkFig3VCWaste(b *testing.B) {
	s := suite(b)
	if _, err := s.Trace("Philly"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3VCWaste(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatusPrediction measures the final-status prediction extension
// (the paper's Section V-C observation made concrete).
func BenchmarkStatusPrediction(b *testing.B) {
	p := synth.Philly(2)
	tr, err := p.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predict.RunStatus(tr, predict.StatusConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridSweep measures the DL-injection stress test (the paper's
// motivating hybrid-workload scenario).
func BenchmarkHybridSweep(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HybridSweep(2, 1, []float64{0, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batch-execution benchmarks: the many-run sweep workloads whose
// throughput the pooled sim.Runner and the internal/par worker pool exist
// for. These are the headline numbers for batch throughput; DESIGN.md's
// "Batch execution" records them against a reallocating simulator.

// BenchmarkRelaxFactorSweep measures the relaxation-factor sweep at the
// paper's six-point grid: 12 full simulations per iteration (relaxed +
// adaptive per factor) over a shared congested trace. This is the
// benchmark the ISSUE's >= 2x ns/op and >= 5x allocs/op acceptance
// criteria are measured on.
func BenchmarkRelaxFactorSweep(b *testing.B) {
	tr := benchTrace(b, "Theta", 4)
	factors := []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RelaxFactorSweep(tr, factors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRLFitness measures one ES generation's fitness evaluation: 16
// candidate policies (the default population's antithetic pairs), each a
// full simulation of the shared trace, fanned out on the worker pool.
func BenchmarkRLFitness(b *testing.B) {
	tr := benchTrace(b, "Theta", 2)
	rng := dist.NewRNG(3)
	pop := make([]rl.LinearPolicy, 16)
	for i := range pop {
		for j := range pop[i].W {
			pop[i].W[j] = rng.Normal()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rl.EvaluatePopulation(context.Background(), pop, tr, sim.EASY); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Streaming-pipeline benchmarks: the out-of-core path (sim.RunStream
// over a trace.Stream; see DESIGN.md's "Streaming pipeline" section). These
// report jobs/s, and the end-to-end pipelines also report the peak heap
// during the run — the number the O(window) memory claim is about.

// BenchmarkStreamSimulatorEASY replays the same congested Theta workload as
// BenchmarkSimulatorEASY through the windowed streaming intake, pinning the
// streaming path's overhead relative to the materialized hot path (results
// are float-for-float identical; only the intake differs).
func BenchmarkStreamSimulatorEASY(b *testing.B) {
	tr := benchTrace(b, "Theta", 8)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}
	sink := func(sim.StreamRow) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunStream(trace.NewSliceStream(tr), opt, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// streamPipeline measures the full out-of-core pipeline — synthetic
// generator streaming into the windowed simulator, rows discarded at the
// sink — on the workload p generates (Helios: ~6.8k jobs/day, Philly:
// ~5.1k across 14 VCs). A sampler goroutine records the peak live heap; on
// long traces it stays bounded by the sliding window (active jobs plus
// arrivals overlapping the longest-running job), not the trace length.
func streamPipeline(b *testing.B, p *synth.Profile) {
	b.Helper()
	var jobs int64
	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ms runtime.MemStats
			for {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
		src, err := p.Stream(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		var met obs.Metrics
		opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, Metrics: &met}
		if _, err := sim.RunStream(src, opt, func(sim.StreamRow) error { return nil }); err != nil {
			b.Fatal(err)
		}
		jobs += met.JobsRetired
		close(stop)
		wg.Wait()
	}
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
}

// BenchmarkStreamPipelineHelios is the CI-scale pipeline benchmark
// (~200k jobs end to end per iteration).
func BenchmarkStreamPipelineHelios(b *testing.B) { streamPipeline(b, synth.Helios(30)) }

// BenchmarkStreamColdHelios streams a 10-day Helios trace (~68k jobs)
// from a slice through a fresh sim.Runner per op: what one `schedsim
// -stream` process pays, window growth included. The warm benchmarks above
// reuse a pooled Runner whose window buffers are already grown. Arrival
// order retirement keeps almost the whole trace in the window here (one
// multi-week job pins the prefix), so B/op tracks the window's storage.
func BenchmarkStreamColdHelios(b *testing.B) {
	tr := benchTrace(b, "Helios", 10)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}
	sink := func(sim.StreamRow) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewRunner().RunStream(trace.NewSliceStream(tr), opt, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkStreamSimulator10M generates and schedules ~10 million jobs per
// iteration (~60s); select it explicitly (scripts/bench.sh
// BenchmarkStreamSimulator10M 1) rather than in the smoke pattern. The
// peak-heap-MB metric demonstrating the O(window) bound is recorded in
// EXPERIMENTS.md.
func BenchmarkStreamSimulator10M(b *testing.B) { streamPipeline(b, synth.Helios(1465)) }

// BenchmarkSimulatorPhilly measures the materialized simulator on a
// congested Philly-like workload (~40k jobs across 14 VCs per iteration),
// the most-partitioned built-in system.
func BenchmarkSimulatorPhilly(b *testing.B) {
	tr := benchTrace(b, "Philly", 8)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkStreamPipelinePhilly is the CI-scale pipeline benchmark on the
// 14-VC Philly generator (~150k jobs end to end per iteration).
func BenchmarkStreamPipelinePhilly(b *testing.B) { streamPipeline(b, synth.Philly(30)) }

// --- Verification benchmarks: the differential-testing substrate
// (internal/check) has to stay fast enough to run in every test cycle.

func verifyBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := synth.VerifyHPC(0.5).Generate(7)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkOracleSimulator measures the O(n²) reference oracle on a
// verification-scale workload; it bounds how big differential sweeps can be.
func BenchmarkOracleSimulator(b *testing.B) {
	tr := verifyBenchTrace(b)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := check.Oracle(tr, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleAuditor measures the invariant auditor over a finished
// run (the cost of `schedsim -audit` beyond the simulation itself).
func BenchmarkScheduleAuditor(b *testing.B) {
	tr := verifyBenchTrace(b)
	rec := &obs.Recorder{}
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.Relaxed, RelaxFactor: 0.1, Observer: rec}
	res, err := sim.Run(tr, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := check.Audit(tr, opt, rec.Events, res); !rep.OK() {
			b.Fatal(rep.Err())
		}
	}
}

// BenchmarkLearnedSchedulerTraining measures one ES training run of the
// learned linear scheduling policy (internal/rl).
func BenchmarkLearnedSchedulerTraining(b *testing.B) {
	tr := benchTrace(b, "Theta", 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rl.Train(tr, rl.TrainConfig{
			Iterations: 5, Population: 4, Seed: 1, Backfill: sim.EASY,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
