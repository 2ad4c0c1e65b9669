package sim

import (
	"context"
	"fmt"
	"io"
	"time"

	"crosssched/internal/cluster"
	"crosssched/internal/trace"
)

// StreamRow is one retired job emitted by a streaming run: the input job
// with Wait filled in, plus the scheduler's first promised start for it
// (-1 when it never became a blocked queue head). Rows are emitted in
// submit (arrival) order, matching Result.Jobs / Result.PromisedStart of
// the equivalent materialized run element for element.
type StreamRow struct {
	Job      trace.Job
	Promised float64
}

// StreamSink receives retired rows. A sink error aborts the run; the
// wrapped error is returned from RunStream and opt.Metrics still receives
// the progress made. A nil sink is allowed (aggregate results only).
type StreamSink func(StreamRow) error

// RunStream simulates scheduling of the jobs produced by src under opt,
// holding only a sliding window of jobs in memory: an arrival is admitted
// when simulation time reaches its submit time and retired to sink once it
// completes, so the working set is O(active + lookahead window) instead of
// O(trace). The stream must be submit-sorted (trace.SWFStream, CSVStream,
// and synth streams all are); every job is validated at admission.
//
// Results are float-for-float identical to materializing the stream and
// calling Run — same AvgWait, AvgBsld, Utilization, Makespan, counters,
// and the same decision-event stream through opt.Observer —
// except that Result.Jobs and Result.PromisedStart are nil (their contents
// went to the sink as rows). Fault injection (opt.Faults) is not supported:
// its per-job state and fault-schedule horizon need the whole trace.
func RunStream(src trace.Stream, opt Options, sink StreamSink) (*Result, error) {
	return RunStreamContext(context.Background(), src, opt, sink)
}

// RunStreamContext is RunStream with cancellation; see RunContext for the
// cancellation contract.
func RunStreamContext(ctx context.Context, src trace.Stream, opt Options, sink StreamSink) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	defer runnerPool.Put(r)
	return r.RunStreamContext(ctx, src, opt, sink)
}

// RunStreamContext simulates a stream on this Runner with cancellation; see
// the package-level RunStream and RunContext.
func (r *Runner) RunStreamContext(ctx context.Context, src trace.Stream, opt Options, sink StreamSink) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.WithDefaults()
	if opt.Faults.Enabled() {
		return nil, fmt.Errorf("sim: streaming runs do not support fault injection (per-job fault state and the fault horizon need the whole trace); materialize with trace.Collect and use RunContext")
	}
	sys := src.System()
	if sys.TotalCores <= 0 {
		return nil, fmt.Errorf("trace: system %q has non-positive capacity", sys.Name)
	}
	nParts := sys.VirtualClusters
	if nParts < 1 {
		nParts = 1
	}
	cl, err := r.cluster(sys.TotalCores, nParts)
	if err != nil {
		return nil, err
	}

	s := &r.s
	s.resetStream(ctx, opt, cl, nParts, src, sink)
	// Window pages go back to the free list for the next run, but the
	// stream, sink, context, and callbacks must not outlive the run.
	defer func() {
		s.inState.releasePages(&s.rows)
		s.inState.src = nil
		s.inState.sink = nil
		s.inState.look = trace.Job{}
		s.in = nil
		s.ctx = nil
		s.done = nil
		s.obsv = nil
		s.opt = Options{}
	}()

	var began time.Time
	if opt.Metrics != nil {
		began = time.Now()
	}
	runErr := s.run()
	if opt.Metrics != nil {
		s.met.JobsStarted = int64(s.started)
		s.met.Backfilled = int64(s.backfilled)
		s.met.Violations = int64(s.violations)
		s.met.MaxWindowJobs = int64(s.inState.maxWindow)
		s.met.JobsRetired = int64(s.inState.retired)
		s.met.WallSeconds = time.Since(began).Seconds()
		s.met.Canceled = runErr != nil && ctx.Err() != nil
		*opt.Metrics = s.met
	}
	if runErr != nil {
		return nil, runErr
	}
	if left := s.next - s.inState.winHead; left != 0 {
		return nil, fmt.Errorf("sim: %d jobs left unretired in the window", left)
	}
	return s.streamResult(), nil
}

// streamIntake is the sliding-window bookkeeping for one streaming run. It
// is retained on the simulator (inState) so its buffers survive between
// runs like the rest of the scratch state.
type streamIntake struct {
	src  trace.Stream
	sink StreamSink

	// One job of lookahead: the next arrival pulled from the stream but not
	// yet admitted. eof marks the stream drained.
	look   trace.Job
	lookOK bool
	eof    bool

	// winHead is the arrival index of the oldest unretired row: the live
	// window is arrivals [winHead, next). lastSubmit enforces the sorted
	// contract.
	winHead    int
	lastSubmit float64

	// freePages holds window pages whose rows have all retired, for reuse
	// by later admissions and later runs on the same Runner.
	freePages []rowPage

	// Running aggregates over retired rows, folded with the same float
	// operations result() uses so the final averages are bit-identical.
	retired   int
	maxWindow int
	sumWait   float64
	sumBsld   float64
}

// fill pulls the next arrival into the lookahead slot if it is empty.
// The job is validated here, mirroring what Trace.Validate checks up front
// on the materialized path: the lookahead's submit competes for the next
// event time, and an infinite one would end the run with the job silently
// never admitted.
func (in *streamIntake) fill(s *simulator) error {
	if in.lookOK || in.eof {
		return nil
	}
	j, err := in.src.Next()
	if err == io.EOF {
		in.eof = true
		return nil
	}
	if err != nil {
		return s.streamReadError(err)
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("sim: stream: %w", err)
	}
	in.look = j
	in.lookOK = true
	return nil
}

// streamReadError wraps a trace-stream failure with run position; the run
// aborts, but opt.Metrics still receives the progress made.
func (s *simulator) streamReadError(err error) error {
	return fmt.Errorf("sim: trace stream failed at t=%v after %d arrivals: %w", s.now, s.next, err)
}

// Window pages: the streaming window's rows live in pages of
// streamPageRows consecutive arrivals, each allocated in one piece.
const (
	streamPageShift = 11
	streamPageRows  = 1 << streamPageShift
)

// streamPage is the storage behind one window page.
type streamPage struct {
	jobs     [streamPageRows]trace.Job
	waits    [streamPageRows]float64
	promised [streamPageRows]float64
	done     [streamPageRows]bool
}

// takePage returns a recycled window page, or a new one.
func (in *streamIntake) takePage() rowPage {
	if n := len(in.freePages); n > 0 {
		pg := in.freePages[n-1]
		in.freePages = in.freePages[:n-1]
		return pg
	}
	sp := new(streamPage)
	return rowPage{jobs: sp.jobs[:], waits: sp.waits[:], promised: sp.promised[:], done: sp.done[:]}
}

// releasePages moves every page still in rows to the free list and empties
// the table. Retired pages were moved already (their slot is zero).
func (in *streamIntake) releasePages(rows *rowTable) {
	for _, pg := range rows.pages {
		if pg.jobs != nil {
			in.freePages = append(in.freePages, pg)
		}
	}
	clear(rows.pages)
	rows.pages = rows.pages[:0]
}

// resetStream prepares the simulator for a streaming run. The per-arrival
// rows become an empty paged window, addressed by arrival index like the
// materialized path's single page; pages come from the Runner's free list.
func (s *simulator) resetStream(ctx context.Context, opt Options, cl *cluster.Cluster, nParts int, src trace.Stream, sink StreamSink) {
	s.resetCore(ctx, opt, cl, nParts)
	s.jobs = nil
	in := &s.inState
	clear(s.rows.pages) // reset on acquire; both paths' cleanups leave it empty
	s.rows.pages = s.rows.pages[:0]
	s.rows.shift, s.rows.mask = streamPageShift, streamPageRows-1
	in.src = src
	in.sink = sink
	in.look = trace.Job{}
	in.lookOK = false
	in.eof = false
	in.winHead = 0
	in.lastSubmit = 0
	in.retired = 0
	in.maxWindow = 0
	in.sumWait = 0
	in.sumBsld = 0
	s.in = in
}

// streamArrival admits the lookahead job when it is due at t, returning
// its window row, which stays put until it retires. It returns (nil, nil)
// when the next arrival is later than t or the stream is drained.
func (s *simulator) streamArrival(t float64) (*trace.Job, error) {
	in := s.in
	if err := in.fill(s); err != nil {
		return nil, err
	}
	if !in.lookOK || in.look.Submit > t {
		return nil, nil
	}
	j := in.look
	in.lookOK = false
	// Admission-time checks mirror the submit-order and partition-fit
	// checks the materialized path makes up front (fill validated j).
	if j.Submit < in.lastSubmit {
		return nil, fmt.Errorf("sim: stream: job %d out of submit order (%v after %v)", j.ID, j.Submit, in.lastSubmit)
	}
	in.lastSubmit = j.Submit
	if err := checkFit(&j, s.cl); err != nil {
		return nil, err
	}
	return s.winAdmit(j), nil
}

// winAdmit writes j as arrival s.next's row, opening a page when the row
// is the first of one. Admitted rows are never copied: the window grows by
// pages and shrinks by recycling fully retired ones.
func (s *simulator) winAdmit(j trace.Job) *trace.Job {
	in := s.in
	idx := s.next
	if idx&s.rows.mask == 0 {
		s.rows.pages = append(s.rows.pages, in.takePage())
	}
	pg, i := s.rows.page(idx)
	pg.jobs[i] = j
	pg.waits[i] = 0
	pg.promised[i] = -1
	pg.done[i] = false
	if w := idx + 1 - in.winHead; w > in.maxWindow {
		in.maxWindow = w
	}
	return &pg.jobs[i]
}

// retireStream flushes the completed prefix of the window to the sink in
// arrival order, folding each row into the running aggregates with the
// same float operations result() uses (trace.Bsld per row), so the
// streaming averages are bit-identical to materialized ones.
func (s *simulator) retireStream() error {
	in := s.in
	for in.winHead < s.next {
		pg, i := s.rows.page(in.winHead)
		if !pg.done[i] {
			break
		}
		j := pg.jobs[i]
		w := pg.waits[i]
		j.Wait = w
		in.sumWait += w
		in.sumBsld += trace.Bsld(w, j.Run, trace.BsldTau)
		if in.sink != nil {
			if err := in.sink(StreamRow{Job: j, Promised: pg.promised[i]}); err != nil {
				return fmt.Errorf("sim: stream sink failed after %d rows: %w", in.retired, err)
			}
		}
		in.retired++
		in.winHead++
		if i == s.rows.mask {
			// The page's last row retired: recycle the page.
			in.freePages = append(in.freePages, *pg)
			*pg = rowPage{}
		}
	}
	return nil
}

// streamResult assembles the Result of a streaming run from the running
// aggregates. Jobs and PromisedStart are nil — their contents went to the
// sink.
func (s *simulator) streamResult() *Result {
	in := &s.inState
	res := &Result{
		Violations:     s.violations,
		ViolationDelay: s.violationDelay,
		Backfilled:     s.backfilled,
		MaxQueueLen:    s.maxQueueSeen,
		Makespan:       s.makespan,
	}
	if n := float64(in.retired); n > 0 {
		res.AvgWait = in.sumWait / n
		res.AvgBsld = in.sumBsld / n
	}
	if s.makespan > 0 {
		res.Utilization = s.cl.Utilization(s.makespan)
	}
	return res
}
