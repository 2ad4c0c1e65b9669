package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crosssched/internal/cluster"
	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// Runner is a reusable simulator instance: the batch execution primitive
// behind every many-run workload (policy x backfill matrices, relaxation
// sweeps, ES fitness populations, figure regeneration). A fresh simulation
// allocates its completion heap, waiting queues, AvailSets, scratch
// profiles, in-flight arena, row storage, and cluster model from scratch; a Runner
// keeps all of that scratch state between runs and resets it instead, so a
// sweep of N runs over the same trace pays the simulator's working-set
// allocation once instead of N times.
//
// Correctness model: every piece of retained state is either reset on
// acquire (truncated slices, zeroed counters, cleared caches) or rebuilt
// when its shape no longer matches the trace, and nothing that escapes into
// a Result is ever reused — Result.Jobs and PromisedStart are freshly
// allocated per run. Runner results are therefore
// float-for-float identical to a fresh run's; TestRunnerReuseMatchesFresh
// and the internal/check oracle sweep pin that invariant. Because the reset
// happens at the START of each run, a Runner abandoned mid-run (context
// cancellation, even a panic) is safe to reuse: no poisoned scratch state
// can leak into the next run.
//
// A Runner is not safe for concurrent use; concurrent callers should let
// the package-level Run/RunContext check warm Runners out of the shared
// sync.Pool, which gives each goroutine its own.
type Runner struct {
	s simulator

	// Cluster model, reused while the trace shape (total cores, partition
	// count) stays the same — the common case for sweeps over one trace.
	cl      *cluster.Cluster
	clTotal int
	clParts int
}

// NewRunner returns an empty Runner. The first run allocates the working
// set; later runs reuse it.
func NewRunner() *Runner { return &Runner{} }

// runnerPool recycles warm Runners across Run/RunContext calls. Concurrent
// sweeps (internal/par workers) each check out their own Runner; between
// sweeps the pool keeps the scratch state alive so back-to-back experiment
// batches stay warm.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// RunContext simulates scheduling of tr under opt with cancellation; see
// the package-level RunContext for the cancellation contract. The input
// trace is treated as immutable and is not retained past the call.
func (r *Runner) RunContext(ctx context.Context, tr *trace.Trace, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.WithDefaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}

	nParts := tr.System.VirtualClusters
	if nParts < 1 {
		nParts = 1
	}
	cl, err := r.cluster(tr.System.TotalCores, nParts)
	if err != nil {
		return nil, err
	}

	s := &r.s
	s.reset(ctx, tr, opt, cl, nParts)
	if opt.Faults.Enabled() {
		if err := s.setupFaults(tr, opt.Faults, cl); err != nil {
			return nil, err
		}
	}
	// Scratch state may live on in the pool, but references to the caller's
	// trace, context, and callbacks must not outlive the run.
	defer func() {
		s.jobs = nil
		clear(s.rows.pages) // the page aliases the trace and the Result's promises
		s.rows.pages = s.rows.pages[:0]
		s.ctx = nil
		s.done = nil
		s.obsv = nil
		s.opt = Options{}
		s.flt = nil
		s.fltState.cfg = nil
		s.fltState.sched = nil
	}()

	// Validate partition fit up front so we fail fast, not mid-run.
	for i := range s.jobs {
		if err := checkFit(&s.jobs[i], cl); err != nil {
			return nil, err
		}
	}

	var began time.Time
	if opt.Metrics != nil {
		began = time.Now()
	}
	runErr := s.run()
	if opt.Metrics != nil {
		s.met.JobsStarted = int64(s.started)
		s.met.Backfilled = int64(s.backfilled)
		s.met.Violations = int64(s.violations)
		s.met.WallSeconds = time.Since(began).Seconds()
		s.met.Canceled = runErr != nil && ctx.Err() != nil
		*opt.Metrics = s.met
	}
	if runErr != nil {
		return nil, runErr
	}
	return s.result()
}

// cluster returns a cluster model for the trace shape, reusing the cached
// one when the shape matches (EvenPartitions is deterministic in
// (totalCores, nParts), so matching those two means matching capacities).
func (r *Runner) cluster(totalCores, nParts int) (*cluster.Cluster, error) {
	if r.cl != nil && r.clTotal == totalCores && r.clParts == nParts {
		r.cl.Reset()
		return r.cl, nil
	}
	cl, err := cluster.NewPartitioned(cluster.EvenPartitions(totalCores, nParts))
	if err != nil {
		return nil, fmt.Errorf("sim: invalid cluster shape (%d cores, %d partitions): %w",
			totalCores, nParts, err)
	}
	r.cl = cl
	r.clTotal, r.clParts = totalCores, nParts
	return r.cl, nil
}

// setupFaults compiles the run's fault schedule and arms the simulator's
// fault state. Only called for enabled configs, so disabled runs never
// touch (or allocate) any of this.
func (s *simulator) setupFaults(tr *trace.Trace, cfg *fault.Config, cl *cluster.Cluster) error {
	caps := make([]int, cl.Partitions())
	for p := range caps {
		caps[p] = cl.Capacity(p)
	}
	// Default generation horizon for the MTBF/MTTR model: the trace's
	// submit span (jobs are validated sorted by submit time).
	horizon := 0.0
	if n := len(tr.Jobs); n > 0 {
		horizon = tr.Jobs[n-1].Submit
	}
	sched, err := cfg.Compile(caps, horizon)
	if err != nil {
		return err
	}
	s.fltState.reset(cfg, sched, len(tr.Jobs))
	s.flt = &s.fltState
	return nil
}

// reset prepares the simulator for a new run, reusing retained scratch
// capacity wherever the previous run left any. Everything the run mutates
// is reinitialized here — reset-on-acquire is what makes an abandoned
// (canceled) Runner safe to reuse.
func (s *simulator) reset(ctx context.Context, tr *trace.Trace, opt Options, cl *cluster.Cluster, nParts int) {
	n := len(tr.Jobs)
	s.resetCore(ctx, opt, cl, nParts)
	// The simulator never writes job records (waits live in a separate
	// array), so the run can schedule straight off the caller's slice: the
	// run's one row page aliases it, and only result() copies jobs, into the
	// escaping Result.
	s.jobs = tr.Jobs
	if cap(s.matWaits) >= n {
		// Every started job overwrites its wait, and a Result is only
		// assembled once all jobs started.
		s.matWaits = s.matWaits[:n]
	} else {
		s.matWaits = make([]float64, n)
	}
	// promised escapes into the Result (PromisedStart), so it is the one
	// per-run allocation that reuse cannot amortize.
	promised := make([]float64, n)
	for i := range promised {
		promised[i] = -1
	}
	s.rows.single(rowPage{jobs: tr.Jobs, waits: s.matWaits, promised: promised})
}

// resetCore reinitializes the state shared by the materialized and streaming
// paths: everything except the per-arrival rows, whose sizing and
// ownership differ between the two (reset makes the trace one row page;
// resetStream in stream.go starts an empty paged window).
func (s *simulator) resetCore(ctx context.Context, opt Options, cl *cluster.Cluster, nParts int) {
	s.opt = opt
	s.cl = cl
	if cap(s.parts) >= nParts {
		s.parts = s.parts[:nParts]
	} else {
		s.parts = make([]partState, nParts)
	}
	for i := range s.parts {
		s.parts[i].reset()
	}
	if cap(s.touched) >= nParts {
		s.touched = s.touched[:nParts]
	} else {
		s.touched = make([]bool, nParts)
	}
	s.compl.items = s.compl.items[:0]
	s.slots = s.slots[:0]
	s.freeSlots = s.freeSlots[:0]
	s.now = 0
	s.next = 0
	s.flt = nil // armed separately (setupFaults) only for enabled configs
	s.in = nil  // armed separately (resetStream) only for streaming runs
	s.ctx = ctx
	s.done = ctx.Done()
	s.obsv = opt.Observer
	s.met = obs.Metrics{}
	if opt.Policy == Fair {
		if s.fair == nil {
			s.fair = NewFairshareState(opt.FairshareHalfLife)
		} else {
			s.fair.Reset(opt.FairshareHalfLife)
		}
	} else {
		s.fair = nil
	}
	s.fairVer = 0
	s.queued = 0
	s.violations = 0
	s.violationDelay = 0
	s.backfilled = 0
	s.maxQueueSeen = 0
	s.started = 0
	s.makespan = 0
}

// reset clears one partition's scheduling state while keeping every slice's
// capacity for the next run.
func (ps *partState) reset() {
	ps.q.buf = ps.q.buf[:0]
	ps.q.stamps = ps.q.stamps[:0]
	ps.q.procs = ps.q.procs[:0]
	ps.q.head = 0
	ps.avail.reset()
	ps.plan.reset()
	ps.sorted = false
	ps.sortTime = 0
	ps.sortFair = 0
	ps.profValid = false
	ps.failScan = failScan{}
	ps.shadowValid = false
	ps.shadowSeedOK = false
	ps.shadowNow = 0
	ps.fitBound = maxFitBound
}
