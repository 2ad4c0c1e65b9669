// Command schedsim replays a job trace through the discrete-event
// scheduling simulator under a chosen priority policy and backfilling
// strategy, and reports the paper's metrics (wait, bsld, util, violations).
//
// Usage:
//
//	schedsim -system Mira -days 16 -policy FCFS -backfill easy
//	schedsim -system Theta -compare          # Table II on one system
//	schedsim -input mytrace.swf -backfill relaxed -relax 0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"crosssched/internal/check"
	"crosssched/internal/experiments"
	"crosssched/internal/fault"
	"crosssched/internal/figures"
	"crosssched/internal/obs"
	"crosssched/internal/par"
	"crosssched/internal/rl"
	"crosssched/internal/sim"
	"crosssched/internal/stats"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// runConfig carries every flag the command accepts; run consumes it so
// tests can drive the full CLI surface without a process boundary.
type runConfig struct {
	system   string // built-in system profile
	input    string // SWF trace path overriding the built-in
	days     float64
	seed     uint64
	policy   string
	backfill string
	relax    float64

	compare   bool
	matrix    bool
	sweep     bool
	estimates bool
	learned   bool
	audit     bool
	degraded  bool

	stream  bool   // windowed out-of-core replay (O(active jobs) memory)
	rowsOut string // per-job result rows as JSONL (streaming mode)

	faults string // fault-scenario spec (fault.ParseSpec format)

	out   string
	bench int

	eventsOut  string        // decision stream as JSONL
	metricsOut string        // per-run counters as JSON
	timeout    time.Duration // whole-run deadline (0 = none)
	progress   bool          // live progress line on stderr
	parallel   int           // worker cap for batch modes (0 = GOMAXPROCS)
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.system, "system", "Mira", "built-in system profile")
	flag.StringVar(&cfg.input, "input", "", "SWF trace to schedule instead of a built-in")
	flag.Float64Var(&cfg.days, "days", 8, "synthetic trace duration in days")
	flag.Uint64Var(&cfg.seed, "seed", 1, "generator seed")
	flag.StringVar(&cfg.policy, "policy", "FCFS", "priority policy: FCFS, SJF, LJF, SAF, WFP3, F1, F2, F3, Fair")
	flag.StringVar(&cfg.backfill, "backfill", "easy", "backfilling: none, easy, conservative, relaxed, adaptive")
	flag.Float64Var(&cfg.relax, "relax", 0.10, "relaxation factor for relaxed/adaptive")
	flag.BoolVar(&cfg.compare, "compare", false, "run the Table II relaxed-vs-adaptive comparison")
	flag.BoolVar(&cfg.matrix, "matrix", false, "run the full policy x backfilling ablation")
	flag.BoolVar(&cfg.sweep, "sweep", false, "run the relaxation-factor sweep ablation")
	flag.BoolVar(&cfg.estimates, "estimates", false, "compare walltime-estimate sources for EASY backfilling")
	flag.BoolVar(&cfg.learned, "learned", false, "train a learned linear policy (ES) and compare against the baselines")
	flag.BoolVar(&cfg.audit, "audit", false, "verify the schedule against the invariant auditor, the decision-stream auditor, and (on small traces) the reference oracle")
	flag.BoolVar(&cfg.degraded, "degraded", false, "run the degraded-capacity sweep (wait/bsld/util vs outage fraction per policy)")
	flag.BoolVar(&cfg.stream, "stream", false, "replay the trace out-of-core: jobs flow through a sliding window, memory stays O(active jobs), results are identical")
	flag.StringVar(&cfg.rowsOut, "rows-out", "", "with -stream, write per-job result rows as JSONL to this file as they retire")
	flag.StringVar(&cfg.faults, "faults", "", "fault-injection scenario, e.g. 'mtbf=172800,mttr=7200,frac=0.25,recovery=requeue,retry=2' or 'down=0:3600:7200:512' (off = none)")
	flag.StringVar(&cfg.out, "o", "", "write the re-scheduled trace (with simulated waits) as SWF to this file")
	flag.IntVar(&cfg.bench, "bench", 0, "repeat the simulation N times and report per-run timing (hot-path diagnosis without a Go test)")
	flag.StringVar(&cfg.eventsOut, "events-out", "", "write the decision-event stream as JSONL to this file")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write per-run counters as JSON to this file")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the run after this wall-clock duration (e.g. 30s)")
	flag.BoolVar(&cfg.progress, "progress", false, "print a live progress line to stderr during the simulation")
	flag.IntVar(&cfg.parallel, "parallel", 0, "max concurrent simulations in batch modes (-matrix, -sweep, -estimates, -learned); 0 = GOMAXPROCS")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the simulation) to this file")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "schedsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := run(cfg)
	if err == nil && *memprofile != "" {
		err = writeMemProfile(*memprofile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedsim:", err)
		os.Exit(1)
	}
}

// writeMemProfile snapshots the heap after the run (post-GC, like go test's
// -memprofile).
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func run(cfg runConfig) error {
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if cfg.parallel > 0 {
		// Every batch entry point fans out through internal/par, which reads
		// this cap from the context — one flag covers them all.
		ctx = par.WithLimit(ctx, cfg.parallel)
	}
	fcfg, err := cfg.faultConfig()
	if err != nil {
		return err
	}
	if cfg.rowsOut != "" && !cfg.stream {
		return fmt.Errorf("-rows-out only applies to -stream runs (materialized runs keep the jobs; use -o)")
	}
	if cfg.stream {
		return runStream(ctx, cfg, fcfg)
	}
	tr, err := loadTrace(cfg.system, cfg.input, cfg.days, cfg.seed)
	if err != nil {
		return err
	}
	nParts := tr.System.VirtualClusters
	if nParts < 1 {
		nParts = 1
	}
	if fcfg != nil {
		// Re-validate with the cluster shape known, so a bad partition in a
		// down=PART:... entry fails here with an actionable message instead
		// of deep inside the simulator.
		if err := fcfg.Validate(nParts); err != nil {
			return fmt.Errorf("%w (the %s system has %d partition(s); down=PART:... needs PART in [0, %d))",
				err, tr.System.Name, nParts, nParts)
		}
	}
	switch {
	case cfg.learned:
		return runLearned(ctx, tr)
	case cfg.compare:
		row, err := figures.CompareRelaxedAdaptive(tr)
		if err != nil {
			return err
		}
		fmt.Print(figures.RenderTableII([]figures.TableIIRow{*row}))
		return nil
	case cfg.matrix:
		cells, err := experiments.PolicyMatrix(ctx, tr, sim.Policies,
			[]sim.BackfillKind{sim.NoBackfill, sim.EASY, sim.Conservative, sim.Relaxed, sim.AdaptiveRelaxed})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderPolicyMatrix(tr.System.Name, cells))
		return nil
	case cfg.sweep:
		pts, err := experiments.RelaxFactorSweep(ctx, tr, []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSweep(tr.System.Name, pts))
		return nil
	case cfg.estimates:
		res, err := experiments.PredictionBackfill(ctx, tr)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	case cfg.degraded:
		bf, err := sim.ParseBackfill(cfg.backfill)
		if err != nil {
			return err
		}
		dopt := experiments.DegradedOptions{
			Backfill: bf, RelaxFactor: cfg.relax,
			Recovery: fault.RecoveryRequeue, RetryCap: 2,
		}
		if fcfg != nil {
			// The sweep scripts its own outages; -faults contributes the
			// recovery semantics applied to interrupted jobs.
			dopt.Recovery = fcfg.Recovery
			dopt.RetryCap = fcfg.RetryCap
			dopt.CheckpointInterval = fcfg.CheckpointInterval
		}
		pts, err := experiments.DegradedSweep(ctx, tr, nil, nil, dopt)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDegraded(tr.System.Name, dopt.Recovery, pts))
		return nil
	}

	pol, err := sim.ParsePolicy(cfg.policy)
	if err != nil {
		return err
	}
	bf, err := sim.ParseBackfill(cfg.backfill)
	if err != nil {
		return err
	}
	opt := sim.Options{Policy: pol, Backfill: bf, RelaxFactor: cfg.relax, Faults: fcfg}
	if cfg.bench > 0 {
		// Benchmark repeats run bare: no observers, so the timing reflects
		// the hot path the user is diagnosing.
		if err := runBench(ctx, tr, opt, cfg.bench); err != nil {
			return err
		}
	}

	// Assemble the observer stack for the measured run. Tee collapses to
	// nil when nothing is requested, keeping the simulator's fast path.
	var observers []obs.Observer
	var events *obs.JSONLWriter
	if cfg.eventsOut != "" {
		f, err := os.Create(cfg.eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		events = obs.NewJSONLWriter(f)
		observers = append(observers, events)
	}
	var prog *obs.Progress
	if cfg.progress {
		prog = obs.NewProgress(os.Stderr, 0)
		observers = append(observers, prog)
	}
	var rec *obs.Recorder
	if cfg.audit {
		rec = &obs.Recorder{}
		observers = append(observers, rec)
	}
	met := &obs.Metrics{}
	opt.Observer = obs.Tee(observers...)
	opt.Metrics = met

	res, err := sim.RunContext(ctx, tr, opt)
	if prog != nil {
		prog.Finish()
	}
	if events != nil {
		if ferr := events.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if cfg.metricsOut != "" {
		// Metrics are written even for a canceled run — the partial
		// counters say how far it got.
		if werr := writeMetrics(cfg.metricsOut, met); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	if cfg.audit {
		if err := runAudit(tr, opt, res, rec.Events); err != nil {
			return err
		}
	}
	if cfg.out != "" {
		annotated := trace.New(tr.System)
		annotated.Jobs = res.Jobs
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteSWF(f, annotated); err != nil {
			return err
		}
		fmt.Printf("wrote re-scheduled trace to %s\n", cfg.out)
	}
	fmt.Printf("%s: %d jobs under %s + %s backfilling\n", tr.System.Name, tr.Len(), pol, bf)
	fmt.Printf("  avg wait        %.2f s\n", res.AvgWait)
	fmt.Printf("  avg bsld        %.2f\n", res.AvgBsld)
	fmt.Printf("  utilization     %.4f\n", res.Utilization)
	fmt.Printf("  violations      %d (total delay %.0f s)\n", res.Violations, res.ViolationDelay)
	fmt.Printf("  backfilled jobs %d\n", res.Backfilled)
	fmt.Printf("  max queue       %d\n", res.MaxQueueLen)
	fmt.Printf("  makespan        %.0f s\n", res.Makespan)
	if fcfg.Enabled() {
		fmt.Printf("  interrupted     %d attempts (%d requeues, %d jobs lost)\n",
			res.Interrupted, res.Requeued, res.FaultFailed)
		fmt.Printf("  goodput         %.1f core-h (wasted %.1f core-h)\n",
			res.GoodputCoreSeconds/3600, res.WastedCoreSeconds/3600)
	}
	return nil
}

// runStream replays the trace through the windowed out-of-core simulator
// (sim.RunStream): jobs are admitted to a sliding window as simulated time
// reaches their submit and retired through a sink the moment they complete,
// so memory stays proportional to the active window rather than the trace.
// Aggregates are float-for-float identical to a materialized run; the wait
// distribution is summarized out-of-core by a t-digest sketch, so its
// quantiles carry the sketch's rank-error bound rather than being exact.
func runStream(ctx context.Context, cfg runConfig, fcfg *fault.Config) error {
	switch {
	case cfg.compare, cfg.matrix, cfg.sweep, cfg.estimates, cfg.learned, cfg.degraded:
		return fmt.Errorf("-stream replays a single run out-of-core; the batch modes (-compare, -matrix, -sweep, -estimates, -learned, -degraded) need the materialized trace")
	case cfg.audit:
		return fmt.Errorf("-stream cannot be combined with -audit: the auditor reads the materialized run (the streaming path is verified by the check package's differential sweep instead)")
	case fcfg != nil:
		return fmt.Errorf("-stream does not support fault injection: outage schedules and per-job fault state need the whole trace up front")
	case cfg.out != "":
		return fmt.Errorf("-stream never holds the scheduled trace in memory, so -o has nothing to write; use -rows-out for per-job results")
	case cfg.bench > 0:
		return fmt.Errorf("-stream does not support -bench; use the BenchmarkStreamSimulator benchmarks instead")
	}
	pol, err := sim.ParsePolicy(cfg.policy)
	if err != nil {
		return err
	}
	bf, err := sim.ParseBackfill(cfg.backfill)
	if err != nil {
		return err
	}
	opt := sim.Options{Policy: pol, Backfill: bf, RelaxFactor: cfg.relax}

	var src trace.Stream
	if cfg.input != "" {
		f, err := os.Open(cfg.input)
		if err != nil {
			return err
		}
		defer f.Close()
		src, err = trace.NewSWFStream(f)
		if err != nil {
			return err
		}
	} else {
		p, err := synth.ByName(cfg.system, cfg.days)
		if err != nil {
			return err
		}
		src, err = p.Stream(cfg.seed)
		if err != nil {
			return err
		}
	}

	var observers []obs.Observer
	var events *obs.JSONLWriter
	if cfg.eventsOut != "" {
		f, err := os.Create(cfg.eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		events = obs.NewJSONLWriter(f)
		observers = append(observers, events)
	}
	var prog *obs.Progress
	if cfg.progress {
		prog = obs.NewProgress(os.Stderr, 0)
		observers = append(observers, prog)
	}
	met := &obs.Metrics{}
	opt.Observer = obs.Tee(observers...)
	opt.Metrics = met

	var rows *obs.JobRowWriter
	if cfg.rowsOut != "" {
		f, err := os.Create(cfg.rowsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		rows = obs.NewJobRowWriter(f)
	}
	waits := stats.NewStreamSummary()
	sink := func(r sim.StreamRow) error {
		waits.Add(r.Job.Wait)
		if rows != nil {
			return rows.WriteRow(r.Job, r.Promised)
		}
		return nil
	}

	res, err := sim.RunStreamContext(ctx, src, opt, sink)
	if prog != nil {
		prog.Finish()
	}
	if events != nil {
		if ferr := events.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if rows != nil {
		if ferr := rows.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if cfg.metricsOut != "" {
		// Written even for a failed run: the partial counters (including
		// JobsRetired) say how far the stream got before it broke.
		if werr := writeMetrics(cfg.metricsOut, met); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	sys := src.System()
	fmt.Printf("%s: %d jobs streamed under %s + %s backfilling (peak window %d jobs)\n",
		sys.Name, met.JobsRetired, pol, bf, met.MaxWindowJobs)
	fmt.Printf("  avg wait        %.2f s\n", res.AvgWait)
	fmt.Printf("  avg bsld        %.2f\n", res.AvgBsld)
	fmt.Printf("  utilization     %.4f\n", res.Utilization)
	fmt.Printf("  violations      %d (total delay %.0f s)\n", res.Violations, res.ViolationDelay)
	fmt.Printf("  backfilled jobs %d\n", res.Backfilled)
	fmt.Printf("  max queue       %d\n", res.MaxQueueLen)
	fmt.Printf("  makespan        %.0f s\n", res.Makespan)
	w := waits.Summary()
	fmt.Printf("  wait sketch     p50 %.1f  p90 %.1f  p99 %.1f  max %.1f s\n", w.P50, w.P90, w.P99, w.Max)
	if rows != nil {
		fmt.Printf("wrote %d job rows to %s\n", rows.Rows(), cfg.rowsOut)
	}
	return nil
}

// faultConfig parses the -faults spec. Returns nil when the scenario
// injects nothing (the simulator's zero-fault path).
func (cfg *runConfig) faultConfig() (*fault.Config, error) {
	fc, err := fault.ParseSpec(cfg.faults)
	if err != nil {
		return nil, err
	}
	if err := fc.Validate(0); err != nil {
		return nil, err
	}
	if !fc.Enabled() {
		return nil, nil
	}
	return fc, nil
}

// runBench repeats the simulation n times and prints per-run wall time plus
// min/mean — enough to diagnose a hot-path regression (typically together
// with -cpuprofile/-memprofile) without writing a Go benchmark.
func runBench(ctx context.Context, tr *trace.Trace, opt sim.Options, n int) error {
	fmt.Printf("bench: %d jobs under %s + %s, %d runs\n", tr.Len(), opt.Policy, opt.Backfill, n)
	min, sum := time.Duration(0), time.Duration(0)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := sim.RunContext(ctx, tr, opt); err != nil {
			return err
		}
		d := time.Since(start)
		sum += d
		if i == 0 || d < min {
			min = d
		}
		fmt.Printf("  run %2d  %12v  (%.0f jobs/s)\n", i+1, d, float64(tr.Len())/d.Seconds())
	}
	fmt.Printf("bench: min %v  mean %v over %d runs\n", min, sum/time.Duration(n), n)
	return nil
}

// oracleJobLimit bounds the traces we differential-test against the O(n²)
// reference oracle; above it -audit still runs the auditor, which is
// linear. 2000 keeps the comparison under ~1 minute even for conservative
// backfilling, the oracle's slowest planner.
const oracleJobLimit = 2000

// runAudit verifies a finished run. A trace small enough for O(n²) goes
// through check.Verify: the auditor, the oracle comparison and the exact
// engine rows, on reruns that record into Verify's own observers, so the
// CLI's observers and metrics see only the measured run. A larger trace,
// fault runs included, gets the auditor on the measured run's decision
// stream.
func runAudit(tr *trace.Trace, opt sim.Options, res *sim.Result, events []obs.Event) error {
	if tr.Len() <= oracleJobLimit {
		if err := check.Verify(tr, opt); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		fmt.Println("audit: OK (auditor, reference oracle and every engine path agree exactly)")
		return nil
	}
	fmt.Printf("audit: trace has %d jobs, skipping O(n²) oracle comparison (limit %d)\n",
		tr.Len(), oracleJobLimit)
	rep := check.Audit(tr, opt, events, res)
	if err := rep.Err(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	fmt.Printf("audit: OK (%d jobs, %d decision events checked)\n", rep.JobsChecked, rep.EventsChecked)
	return nil
}

// writeMetrics dumps the run counters as indented JSON.
func writeMetrics(path string, met *obs.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return met.WriteJSON(f)
}

// runLearned trains an ES policy on the trace and prints the comparison.
func runLearned(ctx context.Context, tr *trace.Trace) error {
	policy, history, err := rl.Train(ctx, tr, rl.TrainConfig{
		Iterations: 20, Population: 8, Seed: 1, Backfill: sim.EASY,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ES training on %s: bsld %.2f -> %.2f (%d iterations)\n",
		tr.System.Name, history[0], history[len(history)-1], len(history)-1)
	fmt.Printf("weights [logRT logN logWait logArea bias]: %.2f\n\n", policy.W)
	fmt.Printf("%-8s  %10s  %10s\n", "policy", "avg bsld", "avg wait")
	for _, p := range []sim.Policy{sim.FCFS, sim.SJF, sim.F1} {
		res, err := sim.RunContext(ctx, tr, sim.Options{Policy: p, Backfill: sim.EASY})
		if err != nil {
			return err
		}
		fmt.Printf("%-8s  %10.2f  %10.1f\n", p, res.AvgBsld, res.AvgWait)
	}
	res, err := sim.RunContext(ctx, tr, policy.Options(sim.EASY))
	if err != nil {
		return err
	}
	fmt.Printf("%-8s  %10.2f  %10.1f\n", "learned", res.AvgBsld, res.AvgWait)
	return nil
}

func loadTrace(system, input string, days float64, seed uint64) (*trace.Trace, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadSWF(f)
	}
	p, err := synth.ByName(system, days)
	if err != nil {
		return nil, err
	}
	return p.Generate(seed)
}
