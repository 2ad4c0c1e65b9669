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
// QueueTimeline, and the same decision-event stream through opt.Observer —
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

// RunStream simulates a stream on this Runner; see the package-level
// RunStream.
func (r *Runner) RunStream(src trace.Stream, opt Options, sink StreamSink) (*Result, error) {
	return r.RunStreamContext(context.Background(), src, opt, sink)
}

// RunStreamContext simulates a stream on this Runner with cancellation; see
// the package-level RunStream and RunContext.
func (r *Runner) RunStreamContext(ctx context.Context, src trace.Stream, opt Options, sink StreamSink) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.BsldTau <= 0 {
		opt.BsldTau = 10
	}
	if opt.RelaxFactor == 0 && (opt.Backfill == Relaxed || opt.Backfill == AdaptiveRelaxed) {
		opt.RelaxFactor = 0.10
	}
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
	// Window buffers stay on the simulator for reuse, but the stream, sink,
	// context, and callbacks must not outlive the run.
	defer func() {
		s.winJobs = s.jobs[:0]
		s.winPromised = s.promised[:0]
		s.jobs = nil
		s.promised = nil
		s.pendings = s.pendings[:0]
		s.waits = s.waits[:0]
		s.idxBase = 0
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
	if left := len(s.pendings) - s.inState.winHead; left != 0 {
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

	// winHead is the retired-prefix length within the window arrays; the
	// live window is [winHead:]. done flags completed (retirable) entries,
	// parallel to the window arrays. idxScratch is compaction scratch for
	// repointing queue entries. lastSubmit enforces the sorted contract.
	winHead    int
	done       []bool
	idxScratch []int
	lastSubmit float64

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

// resetStream prepares the simulator for a streaming run. The per-job
// arrays become an empty sliding window: jobs and promised come from
// dedicated retained buffers (the materialized path points s.jobs at the
// caller's slice and lets s.promised escape into the Result, so neither
// can be shared), while pendings and waits reuse the materialized scratch.
func (s *simulator) resetStream(ctx context.Context, opt Options, cl *cluster.Cluster, nParts int, src trace.Stream, sink StreamSink) {
	s.resetCore(ctx, opt, cl, nParts)
	s.jobs = s.winJobs[:0]
	s.promised = s.winPromised[:0]
	s.pendings = s.pendings[:0]
	s.waits = s.waits[:0]
	in := &s.inState
	in.src = src
	in.sink = sink
	in.look = trace.Job{}
	in.lookOK = false
	in.eof = false
	in.winHead = 0
	in.done = in.done[:0]
	in.lastSubmit = 0
	in.retired = 0
	in.maxWindow = 0
	in.sumWait = 0
	in.sumBsld = 0
	s.in = in
	// The timeline escapes into the Result; its thinning caps it at
	// 2*maxTimelineSamples regardless of stream length.
	s.timeline = make([]QueueSample, 0, 2*maxTimelineSamples)
}

// streamArrival admits the lookahead job when it is due at t, returning
// window pointers valid until the next admission. It returns (nil, nil,
// nil) when the next arrival is later than t or the stream is drained.
func (s *simulator) streamArrival(t float64) (*trace.Job, *pending, error) {
	in := s.in
	if err := in.fill(s); err != nil {
		return nil, nil, err
	}
	if !in.lookOK || in.look.Submit > t {
		return nil, nil, nil
	}
	j := in.look
	in.lookOK = false
	// Admission-time checks mirror the submit-order and partition-fit
	// checks the materialized path makes up front (fill validated j).
	if j.Submit < in.lastSubmit {
		return nil, nil, fmt.Errorf("sim: stream: job %d out of submit order (%v after %v)", j.ID, j.Submit, in.lastSubmit)
	}
	in.lastSubmit = j.Submit
	p := s.partition(&j)
	if j.Procs > s.cl.Capacity(p) {
		return nil, nil, fmt.Errorf("sim: job %d needs %d cores but partition %d has %d",
			j.ID, j.Procs, p, s.cl.Capacity(p))
	}
	jp, pp := s.winAdmit(j)
	return jp, pp, nil
}

// winAdmit appends j to the sliding window, compacting or growing the
// arrays as needed first.
func (s *simulator) winAdmit(j trace.Job) (*trace.Job, *pending) {
	in := s.in
	// pendings is the arena the queues point into: it must never grow via
	// plain append (stale pointers), so make room by hand when it is full.
	// Also compact eagerly once the retired prefix dominates the window
	// (same amortization rule as jobQueue.push).
	if len(s.pendings) == cap(s.pendings) ||
		(in.winHead > 64 && in.winHead*2 > len(s.pendings)) {
		s.winMakeRoom()
	}
	s.jobs = append(s.jobs, j)
	s.pendings = append(s.pendings, pending{})
	s.waits = append(s.waits, 0)
	s.promised = append(s.promised, -1)
	in.done = append(in.done, false)
	if w := len(s.pendings) - in.winHead; w > in.maxWindow {
		in.maxWindow = w
	}
	return &s.jobs[len(s.jobs)-1], &s.pendings[len(s.pendings)-1]
}

// winMakeRoom compacts the retired prefix out of the window arrays and/or
// grows the pendings arena. The waiting queues hold *pending into the
// arena, so their entries are repointed afterwards via arrival indices
// captured before anything moves.
func (s *simulator) winMakeRoom() {
	in := s.in
	h := in.winHead
	live := len(s.pendings) - h
	scratch := in.idxScratch[:0]
	for p := range s.parts {
		for _, pj := range s.parts[p].q.live() {
			scratch = append(scratch, pj.idx)
		}
	}
	in.idxScratch = scratch

	if len(s.pendings) == cap(s.pendings) && h*2 < cap(s.pendings) {
		// The live span dominates the full arena: genuine growth.
		newCap := 2 * cap(s.pendings)
		if newCap < 64 {
			newCap = 64
		}
		np := make([]pending, live, newCap)
		copy(np, s.pendings[h:])
		s.pendings = np
	} else {
		// Compact the retired prefix in place (h > 0 here: a full arena
		// with a small prefix took the growth branch, and the eager-compact
		// trigger requires a large prefix).
		copy(s.pendings, s.pendings[h:])
		s.pendings = s.pendings[:live]
	}
	if h > 0 {
		copy(s.jobs, s.jobs[h:])
		s.jobs = s.jobs[:live]
		copy(s.waits, s.waits[h:])
		s.waits = s.waits[:live]
		copy(s.promised, s.promised[h:])
		s.promised = s.promised[:live]
		copy(in.done, in.done[h:])
		in.done = in.done[:live]
		s.idxBase += h
		in.winHead = 0
	}
	k := 0
	for p := range s.parts {
		lv := s.parts[p].q.live()
		for i := range lv {
			lv[i] = &s.pendings[scratch[k]-s.idxBase]
			k++
		}
	}
}

// retireStream flushes the completed prefix of the window to the sink in
// arrival order, folding each row into the running aggregates with the
// same float operations result() uses (see the inlined bounded-slowdown
// there), so the streaming averages are bit-identical to materialized ones.
func (s *simulator) retireStream() error {
	in := s.in
	tau := s.opt.BsldTau
	for in.winHead < len(s.pendings) && in.done[in.winHead] {
		i := in.winHead
		j := s.jobs[i]
		w := s.waits[i]
		j.Wait = w
		in.sumWait += w
		run := j.Run
		r := run
		if r < tau {
			r = tau
		}
		if r <= 0 {
			in.sumBsld++
		} else {
			bsld := (w + run) / r
			if bsld < 1 {
				bsld = 1
			}
			in.sumBsld += bsld
		}
		if in.sink != nil {
			if err := in.sink(StreamRow{Job: j, Promised: s.promised[i]}); err != nil {
				return fmt.Errorf("sim: stream sink failed after %d rows: %w", in.retired, err)
			}
		}
		in.retired++
		in.winHead++
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
		QueueTimeline:  s.timeline,
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
