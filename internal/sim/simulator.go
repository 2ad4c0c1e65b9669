package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"crosssched/internal/cluster"
	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// Options configures a simulation run.
type Options struct {
	Policy   Policy
	Backfill BackfillKind
	// RelaxFactor is the relaxed-backfilling threshold (the paper uses
	// 0.10): a backfill may delay the head's promised start by up to
	// RelaxFactor x the head's expected wait.
	RelaxFactor float64
	// MaxQueueLen normalizes the adaptive factor (Eq. 1). Zero means use
	// the maximum queue length observed so far during the run.
	MaxQueueLen int
	// BsldTau is the bounded-slowdown interactivity threshold in seconds
	// (default 10, per Feitelson).
	BsldTau float64
	// UseActualRuntime makes reservations use the job's actual runtime
	// instead of the requested walltime (a perfect-estimate oracle).
	UseActualRuntime bool
	// FairshareHalfLife is the usage decay half-life in seconds for the
	// Fair policy (default 24h).
	FairshareHalfLife float64
	// WalltimePredictor, when non-nil, replaces each job's requested
	// walltime with a prediction at submission time (Tsafrir-style
	// backfilling with system-generated predictions). Jobs still run
	// their true runtime; only the scheduler's planning estimate changes,
	// and a job whose true runtime exceeds the prediction is NOT killed
	// (predictions are advisory, unlike user walltimes).
	WalltimePredictor func(j trace.Job) float64
	// CustomScore, when non-nil, overrides Policy for queue ordering
	// (lower scores schedule first). Arguments are the job's planning
	// runtime estimate, requested cores, submission time, and the current
	// simulation time. Used by learned schedulers (internal/rl). It must
	// be a pure function of its arguments: the simulator caches scores
	// per scheduling pass instead of recomputing them per comparison.
	CustomScore func(reqTime float64, procs int, submit, now float64) float64
	// Observer, when non-nil, receives a structured obs.Event for every
	// scheduling decision (submit, start, complete, backfill, reservation
	// made/relaxed, promise violation), synchronously and in decision
	// order. Observers are passive: they cannot change the schedule, and
	// with Observer nil the emission sites cost one branch each and
	// allocate nothing. A non-nil observer is used from the calling
	// goroutine only; share one across concurrent runs via obs.Synced.
	Observer obs.Observer
	// Metrics, when non-nil, receives the run's counters and wall time
	// when the run finishes — including a canceled run, so partial
	// progress stays visible.
	Metrics *obs.Metrics
	// Shards is ignored: every run executes on one simulator, and no code
	// reads the field.
	//
	// Deprecated: kept only so callers that still assign it compile; it
	// will be removed.
	Shards int
	// Faults, when non-nil and enabled, injects capacity and job faults
	// into the run (see internal/fault): partitions lose cores over
	// outage windows (running jobs on the lost cores are interrupted) and
	// running attempts are cut short by a seeded status model, with
	// none/requeue/checkpoint recovery. The injection is deterministic in
	// the config, so the internal/check oracle reproduces fault runs
	// exactly. A nil or disabled config leaves the simulator bit-identical
	// to a run without the fault layer, at the cost of one nil check per
	// integration point (pinned by TestZeroFaultIdentity).
	Faults *fault.Config
}

// WithDefaults returns opt with its unset defaults decided: BsldTau 10, and
// RelaxFactor 0.10 for the relaxed backfill kinds. Every run applies it, as
// do the check oracle and auditors, so all of them plan and score with
// identical numbers.
func (opt Options) WithDefaults() Options {
	if opt.BsldTau <= 0 {
		opt.BsldTau = 10
	}
	if opt.RelaxFactor == 0 && (opt.Backfill == Relaxed || opt.Backfill == AdaptiveRelaxed) {
		opt.RelaxFactor = 0.10
	}
	return opt
}

// Result holds the outcome of a simulation.
type Result struct {
	// Jobs is a copy of the input jobs with Wait filled in (submit order).
	Jobs []trace.Job
	// AvgWait is the mean queue waiting time in seconds (paper's "wait").
	AvgWait float64
	// AvgBsld is the mean bounded slowdown (paper's "bsld").
	AvgBsld float64
	// Utilization is busy core-seconds / (capacity x makespan)
	// (paper's "util").
	Utilization float64
	// Makespan is the completion time of the last job.
	Makespan float64
	// Violations counts reserved queue-head jobs whose actual start was
	// later than their first promised start (paper's "violation").
	Violations int
	// ViolationDelay is the summed delay seconds behind promises.
	ViolationDelay float64
	// Backfilled counts jobs started ahead of a blocked queue head.
	Backfilled int
	// MaxQueueLen is the maximum waiting-queue length observed.
	MaxQueueLen int
	// QueueTimeline samples the total waiting-queue length at event
	// times (thinned to at most maxTimelineSamples points).
	QueueTimeline []QueueSample
	// PromisedStart is each job's first promised (reserved) start time,
	// aligned with Jobs; -1 for jobs that never became a blocked queue
	// head. Violations compare actual starts against these promises.
	PromisedStart []float64

	// Fault-injection outcomes; all zero when Options.Faults is disabled.
	// Interrupted counts attempts cut short, Requeued counts re-entries
	// into the waiting queue, and FaultFailed counts jobs that left the
	// system terminally failed (their copy in Jobs is marked
	// trace.Failed; they keep their first-attempt Wait in AvgWait and
	// AvgBsld). GoodputCoreSeconds is occupancy that produced retained
	// work (completions plus surviving checkpoint credit);
	// WastedCoreSeconds is occupancy lost to interruptions. Their sum
	// equals the cluster's busy integral.
	Interrupted        int
	Requeued           int
	FaultFailed        int
	GoodputCoreSeconds float64
	WastedCoreSeconds  float64
}

// QueueSample is one point of the queue-length timeline.
type QueueSample struct {
	Time   float64
	Length int
}

// maxTimelineSamples caps the timeline size for very long simulations.
const maxTimelineSamples = 4096

// maxFitBound is partState.fitBound before any queued job is counted.
const maxFitBound = math.MaxInt

// pending is an in-flight job: queued, or running until it completes. It
// lives in a slot of the simulator's in-flight arena (simulator.slots)
// from arrival to completion. Field order is deliberate: the backfill scan
// reads (procs, reqTime, scanStamp) for every queued job on every pass and
// the queue sort reads (score, submit, idx), so each group sits
// contiguously at the front of the record to minimize cache lines touched
// per entry.
type pending struct {
	procs   int
	reqTime float64 // planning estimate (walltime, or runtime fallback)
	// scanStamp marks the backfill-scan generation that rejected this job;
	// scans of the same generation skip it (see backfillPass).
	scanStamp uint64
	score     float64 // cached policy score (dynamic policies; see sortQueue)
	submit    float64
	idx       int // arrival index: addresses the job's row (see rowTable)
	user      int
	part      int     // partition the job is confined to
	run       float64 // effective runtime once started
	promised  float64 // first promised start time; <0 when never reserved
}

// running is a dispatched job occupying cores until end. The integer fields
// are int32 to keep the record at 32 bytes: the completion heap swaps these
// by value on every sift, and the narrower record keeps more of the heap in
// cache. The values fit comfortably (arrival index, arena slot, core count,
// partition).
type running struct {
	end   float64 // expected end used for planning (start + reqTime)
	real  float64 // actual completion time (start + run)
	idx   int32   // arrival index
	slot  int32   // the job's pending record in the in-flight arena
	procs int32
	part  int32
}

// completionHeap is a typed binary min-heap of running jobs ordered by
// (actual completion time, arrival index). It replaces the container/heap
// implementation: pushing a value no longer boxes it into an interface{},
// so the per-start heap allocation is gone.
//
// The arrival-index tiebreak makes the pop order of simultaneous
// completions canonical (ascending job index) instead of an artifact of
// heap arrangement, so the release order and the completion events of
// simultaneous completions depend only on the schedule, never on how the
// heap happens to be laid out.
type completionHeap struct {
	items []running
}

func (h *completionHeap) less(a, b *running) bool {
	if a.real != b.real {
		return a.real < b.real
	}
	return a.idx < b.idx
}

func (h *completionHeap) len() int { return len(h.items) }

// min returns the earliest completion without removing it.
func (h *completionHeap) min() *running { return &h.items[0] }

// push and pop sift with a moving hole rather than pairwise swaps: the
// element being sifted is written once at its final slot instead of twice
// per level.
func (h *completionHeap) push(r running) {
	h.items = append(h.items, r)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(&r, &h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = r
}

func (h *completionHeap) pop() running {
	top := h.items[0]
	n := len(h.items) - 1
	moved := h.items[n]
	h.items = h.items[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && h.less(&h.items[r], &h.items[l]) {
			c = r
		}
		if !h.less(&h.items[c], &moved) {
			break
		}
		h.items[i] = h.items[c]
		i = c
	}
	h.items[i] = moved
	return top
}

// jobQueue is one partition's waiting queue: a slice with a live region
// [head:] so that popping the queue head — the overwhelmingly common
// removal under every policy — advances an index instead of copying the
// tail. Middle removals (backfills) shift whichever side of the removal
// point is shorter, and the dead prefix is compacted amortized-O(1) on push.
//
// Entries are slot indices into the in-flight arena (simulator.slots), so
// the arena may grow or be copied without touching any queue.
//
// stamps and procs mirror each entry's scanStamp and procs fields in queue
// order. The backfill scan visits every queued job on every pass, and with
// only the slot slice each visit is a dependent cache miss into the
// arena; the mirrors turn the common skip decisions (already stamped, too
// big for the free cores) into sequential array reads, leaving an arena
// read only for jobs that might actually be admitted. The pending fields
// stay authoritative: queue mutations copy the mirror entries alongside the
// slots, stamping writes both, and the dynamic-policy sort refills the
// mirrors after reordering.
type jobQueue struct {
	buf    []int32
	stamps []uint64
	procs  []int32
	head   int
}

func (q *jobQueue) len() int { return len(q.buf) - q.head }

// at returns the arena slot at live position i.
func (q *jobQueue) at(i int) int32 { return q.buf[q.head+i] }

// live returns the active queue region's slots, in queue order.
func (q *jobQueue) live() []int32 { return q.buf[q.head:] }

// liveMirrors returns the scan mirrors for the live region, parallel to
// live().
func (q *jobQueue) liveMirrors() (stamps []uint64, procs []int32) {
	return q.stamps[q.head:], q.procs[q.head:]
}

// push appends slot, whose record is j, at the queue tail.
func (q *jobQueue) push(slot int32, j *pending) {
	if q.head == len(q.buf) {
		// drained: recycle the whole buffer
		q.buf = q.buf[:0]
		q.stamps = q.stamps[:0]
		q.procs = q.procs[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.buf) {
		// compact the dead prefix (amortized against the head advances
		// that created it)
		n := copy(q.buf, q.buf[q.head:])
		copy(q.stamps, q.stamps[q.head:])
		copy(q.procs, q.procs[q.head:])
		q.buf = q.buf[:n]
		q.stamps = q.stamps[:n]
		q.procs = q.procs[:n]
		q.head = 0
	}
	q.buf = append(q.buf, slot)
	q.stamps = append(q.stamps, j.scanStamp)
	q.procs = append(q.procs, int32(j.procs))
}

// insert places slot, whose record is j, at live position pos, shifting the
// cheaper side.
func (q *jobQueue) insert(pos int, slot int32, j *pending) {
	abs := q.head + pos
	if q.head > 0 && pos < q.len()-pos {
		copy(q.buf[q.head-1:abs-1], q.buf[q.head:abs])
		copy(q.stamps[q.head-1:abs-1], q.stamps[q.head:abs])
		copy(q.procs[q.head-1:abs-1], q.procs[q.head:abs])
		q.head--
		q.buf[abs-1] = slot
		q.stamps[abs-1] = j.scanStamp
		q.procs[abs-1] = int32(j.procs)
		return
	}
	q.buf = append(q.buf, 0)
	q.stamps = append(q.stamps, 0)
	q.procs = append(q.procs, 0)
	copy(q.buf[abs+1:], q.buf[abs:])
	copy(q.stamps[abs+1:], q.stamps[abs:])
	copy(q.procs[abs+1:], q.procs[abs:])
	q.buf[abs] = slot
	q.stamps[abs] = j.scanStamp
	q.procs[abs] = int32(j.procs)
}

// remove deletes the live position pos, shifting the cheaper side.
func (q *jobQueue) remove(pos int) {
	abs := q.head + pos
	if pos < q.len()-pos-1 {
		copy(q.buf[q.head+1:abs+1], q.buf[q.head:abs])
		copy(q.stamps[q.head+1:abs+1], q.stamps[q.head:abs])
		copy(q.procs[q.head+1:abs+1], q.procs[q.head:abs])
		q.head++
		return
	}
	copy(q.buf[abs:], q.buf[abs+1:])
	copy(q.stamps[abs:], q.stamps[abs+1:])
	copy(q.procs[abs:], q.procs[abs+1:])
	q.buf = q.buf[:len(q.buf)-1]
	q.stamps = q.stamps[:len(q.stamps)-1]
	q.procs = q.procs[:len(q.procs)-1]
}

// partState is the per-partition scheduling state.
type partState struct {
	q     jobQueue
	avail AvailSet // planned ends of running jobs, maintained incrementally
	prof  profile  // scratch availability profile for conservative passes
	// plan is the persistent conservative-backfilling reservation plan,
	// repaired incrementally across passes instead of rebuilt (see consplan.go).
	plan consPlan
	// Dynamic-policy score cache: the queue order is a pure function of
	// (now, fair-usage version), so the sort runs once per distinct pass
	// instead of once per schedule-loop iteration.
	sorted   bool
	sortTime float64
	sortFair int
	// Profile cache: the scratch profile stays valid while profKey holds —
	// see buildProfile.
	profValid bool
	profKey   availKey
	// failScan memoizes rejected backfill candidates; see backfillPass.
	failScan failScan
	scanGen  uint64 // monotone backfill-scan generation counter
	// fitBound is a lower bound on the core request of every queued job:
	// arrivals lower it and failing backfill scans recompute it exactly
	// (removals can only raise the true minimum, keeping the bound valid).
	// When free < fitBound no queued job can be dispatched, which lets
	// schedule skip the entire planning pass — see the fast reject there.
	fitBound int
	// Shadow cache: the blocked head's planned (start, minFree), reusable
	// while shadowKey holds and the head is unchanged — see schedule.
	shadowValid   bool
	shadowKey     availKey
	shadowIdx     int
	shadowStart   float64
	shadowMinFree int
	// shadowSeedOK marks the cached shadow as a valid search seed even
	// after the profile changed: as long as only dispatches (avail.Add)
	// happened since it was computed, the profile has only lost capacity
	// pointwise, so the head's earliest start cannot move before the old
	// shadow and the search may resume there. Cleared on every completion
	// (capacity returning can move the shadow earlier). shadowNow guards
	// against reusing a seed across clock advances.
	shadowSeedOK bool
	shadowNow    float64
}

// availKey identifies a partition's availability step function as seen
// from the clock: the planned-end multiset (tracked by the AvailSet
// version), the free core count, and the first planned end strictly after
// the clock. Until the clock reaches nextEnd, advancing it only moves the
// step function's base breakpoint, which planning queries never
// distinguish because they always start at the current time.
type availKey struct {
	ver     uint64
	free    int
	nextEnd float64
}

// holds reports whether k still describes a partition whose AvailSet is at
// version ver with free cores free at time now.
func (k availKey) holds(ver uint64, free int, now float64) bool {
	return k.ver == ver && k.free == free && now < k.nextEnd
}

// failScan tracks the live backfill-scan memo generation: queued jobs
// stamped with the generation were examined and rejected under conditions
// no looser than the recorded (free, extra, deadline), and each
// admissibility condition is monotone, so scans under conditions at least
// as tight can skip them. See backfillPass.
type failScan struct {
	valid    bool
	stamp    uint64  // generation whose stamped jobs are provably inadmissible
	free     int     // free cores recorded by the generation's latest scan
	extra    int     // spare cores beside the head's reservation, likewise
	deadline float64 // latest admissible completion for non-extra backfills
}

// simulator is the run state.
type simulator struct {
	opt   Options
	jobs  []trace.Job // the materialized log (nil when streaming); rows.pages[0].jobs aliases it
	cl    *cluster.Cluster
	parts []partState
	compl completionHeap
	now   float64

	// slots is the in-flight arena: one pending record per job that is
	// queued or running. An arrival takes a slot from the LIFO free list
	// freeSlots (or appends one) and gives it back when it completes or
	// fails terminally — not when it starts, so an interrupted attempt
	// requeues from the same record. The arena is sized by the peak number
	// of jobs in flight, not by the log. Queues and running records hold
	// slot indices, never pointers, so it grows by plain append and a
	// checkpoint fork copies it verbatim.
	slots     []pending
	freeSlots []int32

	// rows holds the per-arrival rows (job, wait, first promise, and on the
	// streaming path the retirement flag), addressed by arrival index.
	rows rowTable

	// ctx/done carry cancellation; done is nil for background contexts,
	// which keeps the per-iteration check a single nil compare.
	ctx  context.Context
	done <-chan struct{}
	obsv obs.Observer
	met  obs.Metrics

	fair    *FairshareState // non-nil when Policy == Fair
	fairVer int             // bumped on every Charge; invalidates score caches

	// in is non-nil only on the streaming path (RunStream); inState is the
	// reused backing storage, including the free list of window pages (see
	// stream.go).
	in      *streamIntake
	inState streamIntake
	// matWaits is the materialized path's retained waits buffer (its one
	// row page's waits; the page's jobs and promises belong to the caller
	// and the Result).
	matWaits []float64

	// flt is non-nil only when fault injection is enabled; fltState is the
	// reused backing storage (see simFault).
	flt      *simFault
	fltState simFault

	next           int // next arrival index (a field so checkpoints can pause/resume)
	queued         int // total jobs waiting across partitions
	touched        []bool
	violations     int
	violationDelay float64
	backfilled     int
	maxQueueSeen   int
	started        int
	makespan       float64
	timeline       []QueueSample
	// timelineShared is set while a checkpoint fork shares timeline's
	// array (see cloneSimulator); noTimeline turns sampling off for a
	// fork that folds no Result (Fork.RunSummary).
	timelineShared bool
	noTimeline     bool
}

// sampleQueue appends a queue-length sample, thinning by halving once the
// cap is reached (keeps coverage of the whole run, bounded memory). The
// thinning is copy-on-thin: it halves in place unless a fork shares the
// array, whose samples it would overwrite; then it halves into a fresh one.
func (s *simulator) sampleQueue(t float64) {
	s.timeline = append(s.timeline, QueueSample{Time: t, Length: s.queued})
	if len(s.timeline) >= 2*maxTimelineSamples {
		kept := s.timeline[:0]
		if s.timelineShared {
			kept = make([]QueueSample, 0, cap(s.timeline))
			s.timelineShared = false
		}
		for i := 0; i < len(s.timeline); i += 2 {
			kept = append(kept, s.timeline[i])
		}
		s.timeline = kept
	}
}

// Run simulates scheduling of tr under opt and returns the metrics.
// The input trace is not modified. Run is safe to call concurrently
// (including on the same trace): each call checks a warm Runner out of a
// shared pool, so all mutable state is per-call and repeated runs reuse the
// simulator's working set instead of reallocating it.
func Run(tr *trace.Trace, opt Options) (*Result, error) {
	return RunContext(context.Background(), tr, opt)
}

// RunContext is Run with cancellation: the event loop checks ctx once per
// iteration and aborts with an error wrapping ctx.Err() (context.Canceled
// or context.DeadlineExceeded) as soon as the context ends. A canceled
// run still fills opt.Metrics with the progress made. Background-like
// contexts (Done() == nil) cost nothing in the loop.
func RunContext(ctx context.Context, tr *trace.Trace, opt Options) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	defer runnerPool.Put(r)
	return r.RunContext(ctx, tr, opt)
}

// partition maps a job to its cluster partition index.
func (s *simulator) partition(j *trace.Job) int {
	return partitionOf(j, s.cl.Partitions())
}

// partitionOf is the partition mapping shared by the simulator and the
// checkpoint's up-front job checks (checkpoint.go), which must agree
// exactly: a job is size-checked against the partition it will queue on.
func partitionOf(j *trace.Job, nParts int) int {
	if nParts == 1 {
		return 0
	}
	if j.VC >= 0 && j.VC < nParts {
		return j.VC
	}
	// jobs without a VC in a partitioned system land by user hash
	return j.User % nParts
}

// rowPage holds the rows of consecutive arrivals in parallel arrays.
type rowPage struct {
	jobs     []trace.Job
	waits    []float64
	promised []float64 // first promised start; -1 until the job is a blocked head
	done     []bool    // streaming only: completed, so the row may retire
}

// rowTable addresses per-arrival rows by arrival index: row idx lives at
// offset idx&mask of page idx>>shift. The streaming window uses fixed-size
// pages (stream.go): an admitted row is written once and never moves, and
// a page whose rows have all retired is recycled. A materialized run or a
// checkpoint is the one-page case (shift 63, mask MaxInt), whose page
// aliases the trace and holds the flat promise slice Result.PromisedStart
// returns — one addressing path for all of them.
type rowTable struct {
	pages []rowPage
	shift uint
	mask  int
}

// single makes pg the table's only page, holding every arrival.
func (t *rowTable) single(pg rowPage) {
	t.pages = append(t.pages[:0], pg)
	t.shift, t.mask = 63, math.MaxInt
}

// page returns the page holding arrival idx and the row's offset in it.
func (t *rowTable) page(idx int) (*rowPage, int) {
	return &t.pages[idx>>t.shift], idx & t.mask
}

// job returns the trace job with arrival index idx.
func (s *simulator) job(idx int) *trace.Job {
	pg, i := s.rows.page(idx)
	return &pg.jobs[i]
}

// takeSlot returns a free arena slot for an arrival, reusing the most
// recently freed one. Growing the arena by append is safe: queues and
// running records address it by index, and no caller holds a pointer into
// it across an arrival.
func (s *simulator) takeSlot() int32 {
	if n := len(s.freeSlots); n > 0 {
		k := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return k
	}
	s.slots = append(s.slots, pending{})
	return int32(len(s.slots) - 1)
}

// freeSlot returns a finished job's slot to the free list.
func (s *simulator) freeSlot(k int32) { s.freeSlots = append(s.freeSlots, k) }

// run drives the event loop to completion and applies the final
// every-arrival-started invariant check.
func (s *simulator) run() error {
	if err := s.runUntil(math.Inf(1)); err != nil {
		return err
	}
	// s.next == len(s.jobs) on the materialized path here, so the check is
	// the same on both paths: every arrival must have started.
	if s.started != s.next {
		return fmt.Errorf("sim: only %d/%d jobs started (scheduler stuck)", s.started, s.next)
	}
	return nil
}

// runUntil advances the event loop until the trace is drained or the next
// event time reaches pause (exclusive: every iteration with t < pause is
// processed, none at or past it). Pausing leaves the simulator in a
// consistent mid-run state that a later runUntil call — or a Checkpoint
// clone (see checkpoint.go) — can resume from; runUntil(+Inf) is a full run.
func (s *simulator) runUntil(pause float64) error {
	for {
		// The streaming intake holds one job of lookahead: the next
		// arrival's submit time competes with completions for the next
		// event time, so it must be known before the clock can advance.
		if s.in != nil {
			if err := s.in.fill(s); err != nil {
				return err
			}
		}
		more := s.next < len(s.jobs)
		if s.in != nil {
			more = s.in.lookOK
		}
		if !more && s.compl.len() == 0 &&
			(s.flt == nil || s.flt.next >= len(s.flt.sched.Events)) {
			break
		}
		if s.done != nil {
			if err := s.ctx.Err(); err != nil {
				total := len(s.jobs)
				if s.in != nil {
					total = s.next // arrivals seen so far; the stream is open-ended
				}
				return fmt.Errorf("sim: run canceled at t=%v after %d events (%d/%d jobs started): %w",
					s.now, s.met.Events, s.started, total, err)
			}
		}
		// choose the next event time
		t := math.Inf(1)
		if more {
			if s.in != nil {
				t = s.in.look.Submit
			} else {
				t = s.jobs[s.next].Submit
			}
		}
		if s.compl.len() > 0 && s.compl.min().real < t {
			t = s.compl.min().real
		}
		if s.flt != nil {
			if ft := s.flt.nextTime(); ft < t {
				t = ft
			}
		}
		if t >= pause {
			return nil
		}
		s.met.Events++
		s.now = t

		touched := s.touched
		for i := range touched {
			touched[i] = false
		}
		// completions at t release resources first
		for s.compl.len() > 0 && s.compl.min().real <= t {
			r := s.compl.pop()
			part, procs := int(r.part), int(r.procs)
			if err := s.cl.Release(t, part, procs); err != nil {
				return err
			}
			s.parts[part].avail.Remove(r.end, procs)
			// Returning capacity can move the blocked head's shadow
			// earlier, so the cached shadow is no longer a search seed.
			s.parts[part].shadowSeedOK = false
			// A completion before its planned end returns capacity the
			// conservative plan reserved around: record the hole so the
			// next pass re-checks which reservations it could pull
			// earlier. Completions at (or past) the planned end leave the
			// availability profile unchanged — the end just folds into the
			// base — so the plan needs no note for them.
			if s.parts[part].plan.valid && r.end > t {
				s.parts[part].plan.noteHole(r.end, procs)
			}
			if r.real > s.makespan {
				s.makespan = r.real
			}
			touched[part] = true
			if s.flt != nil {
				if s.flt.willInterrupt[r.idx] {
					// The attempt ends in a drawn interrupt at r.real, not
					// a completion: classify its occupancy and requeue or
					// fail the job.
					s.flt.willInterrupt[r.idx] = false
					s.faultInterrupted(&r, r.real, touched)
					continue
				}
				s.flt.goodput += (r.real - s.flt.lastStart[r.idx]) * float64(procs)
			}
			s.met.Completions++
			s.freeSlot(r.slot)
			if s.in != nil {
				// Mark for prefix retirement (faults are rejected on the
				// streaming path, so every heap pop lands here).
				pg, i := s.rows.page(int(r.idx))
				pg.done[i] = true
			}
			if s.obsv != nil {
				s.obsv.Observe(obs.Event{
					Kind: obs.JobComplete, Time: r.real, Job: s.job(int(r.idx)).ID,
					Part: part, Procs: procs, Detail: r.end,
				})
			}
		}
		// capacity faults due at t apply after completions (freed cores
		// reduce the victim count) and before arrivals
		if s.flt != nil {
			if err := s.applyCapacityFaults(t, touched); err != nil {
				return err
			}
		}
		// arrivals at t join their queue
		for {
			var j *trace.Job
			if s.in != nil {
				var err error
				j, err = s.streamArrival(t)
				if err != nil {
					return err
				}
				if j == nil {
					break // next arrival is later than t (or stream drained)
				}
			} else {
				if s.next >= len(s.jobs) || s.jobs[s.next].Submit > t {
					break
				}
				j = &s.jobs[s.next]
			}
			p := s.partition(j)
			reqTime := j.Walltime
			if reqTime <= 0 || s.opt.UseActualRuntime {
				reqTime = j.Run
			}
			run := j.Run
			if j.Walltime > 0 && run > j.Walltime {
				run = j.Walltime // killed at the walltime limit
			}
			if s.opt.WalltimePredictor != nil {
				if pred := s.opt.WalltimePredictor(*j); pred > 0 {
					reqTime = pred // advisory estimate; no kill at pred
				}
			}
			k := s.takeSlot()
			s.slots[k] = pending{
				idx: s.next, user: j.User, submit: j.Submit, procs: j.Procs,
				part: p, reqTime: reqTime, run: run, promised: -1,
			}
			s.enqueue(p, k)
			s.queued++
			touched[p] = true
			s.met.Arrivals++
			if s.obsv != nil {
				s.obsv.Observe(obs.Event{
					Kind: obs.JobSubmit, Time: j.Submit, Job: j.ID,
					Part: p, Procs: j.Procs, Detail: reqTime,
				})
			}
			s.next++
		}
		if s.queued > s.maxQueueSeen {
			s.maxQueueSeen = s.queued
		}
		// Partitions are scheduled in index order: the Fair policy's usage
		// accounts are shared across partitions, so iteration order is
		// observable (map-order iteration here made runs nondeterministic).
		for p, hit := range touched {
			if !hit {
				continue
			}
			if err := s.schedule(p); err != nil {
				return err
			}
		}
		if !s.noTimeline {
			s.sampleQueue(t)
		}
		// Retire the completed window prefix out to the sink: rows leave in
		// arrival order, keeping the working set O(active + lookahead).
		if s.in != nil {
			if err := s.retireStream(); err != nil {
				return err
			}
		}
	}
	return nil
}

// staticOrder reports whether queue order is fixed at arrival time.
func (s *simulator) staticOrder() bool {
	return s.opt.Policy.static() && s.opt.CustomScore == nil
}

// enqueue places the job in arena slot k in partition p's waiting queue
// (ordered position under static policies, re-sort marker under dynamic
// ones) and maintains the partition's fit bound. Shared by the arrival path
// and the fault-requeue path so a requeued job re-enters exactly like a
// fresh arrival.
func (s *simulator) enqueue(p int, k int32) {
	pj := &s.slots[k]
	if s.staticOrder() {
		s.insertSorted(p, k, pj)
	} else {
		s.parts[p].q.push(k, pj)
		s.parts[p].sorted = false
	}
	if pj.procs < s.parts[p].fitBound {
		s.parts[p].fitBound = pj.procs
	}
}

// less is the canonical queue ordering at time now: policy score, then
// submit time, then job index for determinism. It recomputes scores per
// comparison and is used only on the static arrival path (insertSorted),
// where scores are time-independent; dynamic passes sort on cached scores
// in sortQueue instead.
func (s *simulator) less(a, b *pending, now float64) bool {
	var sa, sb float64
	switch {
	case s.opt.CustomScore != nil:
		sa = s.opt.CustomScore(a.reqTime, a.procs, a.submit, now)
		sb = s.opt.CustomScore(b.reqTime, b.procs, b.submit, now)
	case s.fair != nil:
		sa, sb = s.fair.Usage(a.user, now), s.fair.Usage(b.user, now)
	default:
		sa, sb = s.opt.Policy.score(a, now), s.opt.Policy.score(b, now)
	}
	if sa != sb {
		return sa < sb
	}
	if a.submit != b.submit {
		return a.submit < b.submit
	}
	return a.idx < b.idx
}

// insertSorted places a pending job at its ordered position (static
// policies only — the position never changes afterwards). Arrivals come in
// submit order, so under FCFS-like orderings the new job belongs at the
// tail; checking the last entry first makes the common case one comparison,
// and when it fails the binary search proceeds over the rest.
func (s *simulator) insertSorted(p int, k int32, j *pending) {
	q := &s.parts[p].q
	live := q.live()
	n := len(live)
	if n == 0 || !s.less(j, &s.slots[live[n-1]], s.now) {
		q.push(k, j)
		return
	}
	lo := sort.Search(n-1, func(i int) bool { return s.less(j, &s.slots[live[i]], s.now) })
	// An arrival ahead of kept reservations invalidates them (positions
	// shift and the newcomer must be planned before them); entries below
	// the insertion point are untouched and survive.
	s.parts[p].plan.truncate(lo)
	q.insert(lo, k, j)
}

// sortQueue orders the partition queue by the policy. For static policies
// the queue is already sorted by insertSorted and this is a no-op. For
// dynamic policies the order is a pure function of the current time (and,
// under Fair, of the usage accounts), so scores are computed once per
// (partition, time, usage-version) pass, cached on the pending entries, and
// the sort is skipped entirely on repeat passes — removals preserve order.
func (s *simulator) sortQueue(p int) {
	if s.staticOrder() {
		return
	}
	ps := &s.parts[p]
	if ps.sorted && ps.sortTime == s.now && (s.fair == nil || ps.sortFair == s.fairVer) {
		s.met.ScoreCacheHits++
		return
	}
	s.met.ScoreSorts++
	live := ps.q.live()
	slots := s.slots
	now := s.now
	switch {
	case s.opt.CustomScore != nil:
		for _, k := range live {
			j := &slots[k]
			j.score = s.opt.CustomScore(j.reqTime, j.procs, j.submit, now)
		}
	case s.fair != nil:
		for _, k := range live {
			j := &slots[k]
			j.score = s.fair.Usage(j.user, now)
		}
	default:
		for _, k := range live {
			j := &slots[k]
			j.score = s.opt.Policy.score(j, now)
		}
	}
	// The comparator is a total order (score, submit, idx), so the sorted
	// permutation is unique and neither stability nor the sort algorithm can
	// change the result; slices.SortFunc sorts without the per-call closure
	// allocations of sort.Slice.
	slices.SortFunc(live, func(a, b int32) int {
		ja, jb := &slots[a], &slots[b]
		switch {
		case ja.score < jb.score:
			return -1
		case ja.score > jb.score:
			return 1
		case ja.submit < jb.submit:
			return -1
		case ja.submit > jb.submit:
			return 1
		default:
			return ja.idx - jb.idx
		}
	})
	// The sort permuted the slot slice; refill the scan mirrors from the
	// authoritative pending fields so they stay parallel.
	stamps, procsArr := ps.q.liveMirrors()
	for i, k := range live {
		j := &slots[k]
		stamps[i] = j.scanStamp
		procsArr[i] = int32(j.procs)
	}
	ps.sorted = true
	ps.sortTime = now
	ps.sortFair = s.fairVer
}

// start dispatches job j from partition p's queue position pos.
func (s *simulator) start(p, pos int) {
	ps := &s.parts[p]
	k := ps.q.at(pos)
	j := &s.slots[k]
	if err := s.cl.Allocate(s.now, p, j.procs); err != nil {
		// The caller checked CanAllocate; reaching here is a bug.
		panic(fmt.Sprintf("sim: allocation invariant broken: %v", err))
	}
	// Under fault injection a job may start several times; the recorded
	// wait, the promise-violation accounting, and the unique-start count
	// belong to the FIRST attempt only. (first is constant true on the
	// zero-fault path, so these branches compile to the original code.)
	w := s.now - j.submit
	first := s.flt == nil || !s.flt.everStarted[j.idx]
	if first {
		pg, i := s.rows.page(j.idx)
		pg.waits[i] = w
	}
	if s.obsv != nil {
		s.obsv.Observe(obs.Event{
			Kind: obs.JobStart, Time: s.now, Job: s.job(j.idx).ID,
			Part: p, Procs: j.procs, Detail: w,
		})
		if pos > 0 {
			s.obsv.Observe(obs.Event{
				Kind: obs.Backfill, Time: s.now, Job: s.job(j.idx).ID,
				Part: p, Procs: j.procs, Detail: float64(pos),
			})
		}
		if first && j.promised >= 0 && s.now > j.promised+1e-9 {
			s.obsv.Observe(obs.Event{
				Kind: obs.PromiseViolation, Time: s.now, Job: s.job(j.idx).ID,
				Part: p, Procs: j.procs, Detail: s.now - j.promised,
			})
		}
	}
	if first && j.promised >= 0 && s.now > j.promised+1e-9 {
		s.violations++
		s.violationDelay += s.now - j.promised
	}
	if pos > 0 {
		s.backfilled++
	}
	if s.fair != nil {
		s.fair.Charge(j.user, s.now, float64(j.procs)*j.run)
		s.fairVer++
	}
	end := s.now + j.reqTime
	real := s.now + j.run
	if s.flt != nil {
		s.flt.everStarted[j.idx] = true
		s.flt.lastStart[j.idx] = s.now
		if cut, ok := s.flt.cfg.InterruptCut(j.idx, int(s.flt.attempts[j.idx]), j.run); ok {
			// The attempt ends early in an interrupt: its heap entry uses
			// the interrupt instant, and the pop path routes it to
			// faultInterrupted instead of the completion path.
			real = s.now + cut
			s.flt.willInterrupt[j.idx] = true
		}
	}
	s.compl.push(running{idx: int32(j.idx), slot: k, end: end, real: real, procs: int32(j.procs), part: int32(p)})
	ps.avail.Add(end, j.procs)
	ps.q.remove(pos)
	s.queued--
	if first {
		s.started++
	}
	if real > s.makespan {
		s.makespan = real
	}
}

// schedule runs one scheduling pass for partition p at the current time.
func (s *simulator) schedule(p int) error {
	s.met.SchedulePasses++
	ps := &s.parts[p]
	for {
		if ps.q.len() == 0 {
			return nil
		}
		s.sortQueue(p)
		head := &s.slots[ps.q.at(0)]
		if s.cl.CanAllocate(p, head.procs) {
			// Starting the head shifts every queue position, and the
			// capacity it consumes is not a plan reservation; drop the
			// conservative plan and force an rprof rebuild (the structure
			// survives — the next pass replans onto it from scratch).
			ps.plan.headStarted()
			s.start(p, 0)
			continue
		}
		if s.opt.Backfill == NoBackfill {
			// No reservations are made, so no promises to violate.
			return nil
		}
		// Fast reject: when even the smallest queued request exceeds the
		// free cores, no dispatch of any kind is possible, and with the
		// head's promise already recorded a planning pass has no other
		// observable effect (backfill verdicts only matter on admission,
		// and the conservative plan tolerates skipped passes: its repair
		// scan truncates entries whose planned start slipped into the past
		// unstarted, and capacity holes stay queued until the next real
		// pass) — skip it outright.
		if head.promised >= 0 && s.cl.Free(p) < ps.fitBound {
			return nil
		}
		// Outage-blocked head: while a capacity fault holds the partition
		// below the head's request, no reservation can be planned for it
		// (the availability profile never reaches head.procs free cores,
		// so the shadow scan has no feasible answer). Degrade to a pure
		// greedy pass — start any queued job that fits the free cores,
		// with no reservation to protect — until capacity returns.
		if s.flt != nil && head.procs > s.cl.Capacity(p)-s.cl.DownCores(p) {
			started, _ := s.backfillPass(p, math.Inf(1), math.Inf(1), s.cl.Free(p))
			if !started {
				return nil
			}
			continue
		}
		// Head is blocked: plan its reservation. The shadow is one scan of
		// the planned ends (AvailSet.shadow), and the answer is cached:
		// while the availability step function is unchanged (shadowKey)
		// and the head's scan provably fails at the base segment (fewer
		// than procs cores free at now, with a later planned end to resume
		// from), the result is independent of the query time — the scan
		// resumes at the first planned end — so as long as the same head
		// is blocked, (shadow, minFree) are unchanged. Without a later end,
		// or when the base segment admits the head on paper (cores freed
		// by jobs running past their planned end), the result tracks the
		// clock and is not cached.
		free := s.cl.Free(p)
		var shadow float64
		var minFree int
		if ps.shadowValid && ps.shadowIdx == head.idx && ps.shadowKey.holds(ps.avail.ver, free, s.now) {
			shadow, minFree = ps.shadowStart, ps.shadowMinFree
		} else {
			// Seed the search at the previous shadow when it is still a
			// proven lower bound (same head, same clock, only dispatches
			// since): the scan returns the first feasible time >= its from
			// argument, and none can exist before the seed, so the result
			// is identical to a scan from now — the infeasible prefix is
			// just skipped.
			from := s.now
			if ps.shadowSeedOK && ps.shadowIdx == head.idx &&
				ps.shadowNow == s.now && ps.shadowStart > from {
				from = ps.shadowStart
			}
			var nextEnd float64
			var baseFree int
			shadow, minFree, nextEnd, baseFree = ps.avail.shadow(s.now, free, from, head.procs)
			ps.shadowValid = baseFree < head.procs && !math.IsInf(nextEnd, 1)
			ps.shadowKey = availKey{ver: ps.avail.ver, free: free, nextEnd: nextEnd}
			ps.shadowIdx = head.idx
			ps.shadowStart = shadow
			ps.shadowMinFree = minFree
			ps.shadowSeedOK = true
			ps.shadowNow = s.now
		}
		if head.promised < 0 {
			head.promised = shadow
			pg, i := s.rows.page(head.idx)
			pg.promised[i] = shadow
			if s.obsv != nil {
				s.obsv.Observe(obs.Event{
					Kind: obs.ReservationMade, Time: s.now, Job: s.job(head.idx).ID,
					Part: p, Procs: head.procs, Detail: shadow,
				})
			}
		}
		if s.opt.Backfill == Conservative {
			// Only conservative reservations need the materialized
			// profile. The pass reserves into its own persistent copy, so
			// the scratch profile — and with it the profile cache —
			// survives; any starts it makes bump the AvailSet version,
			// which invalidates both caches.
			s.conservativePass(p, s.buildProfile(p))
			return nil
		}
		extra := minFree - head.procs
		// The relaxation budget is anchored to the head's FIRST promise,
		// so repeated backfill passes cannot compound the slip: total
		// delay stays within allowance of the original promise (Ward et
		// al.). Anything finishing before the current shadow is free.
		// base is the deadline a zero-allowance kind (EASY) would use;
		// only a backfill intruding beyond it counts as a relaxation.
		base := head.promised
		if shadow > base {
			base = shadow
		}
		deadline := head.promised + s.allowance(p, head)
		if deadline < base {
			deadline = base
		}
		started, relaxed := s.backfillPass(p, deadline, base, extra)
		if started {
			if relaxed && s.obsv != nil {
				// The admitted backfill intrudes past the head's current
				// shadow start: the promise was relaxed to let it in.
				s.obsv.Observe(obs.Event{
					Kind: obs.ReservationRelaxed, Time: s.now, Job: s.job(head.idx).ID,
					Part: p, Procs: head.procs, Detail: deadline,
				})
			}
			continue // resources changed; re-evaluate the head
		}
		return nil
	}
}

// allowance computes how far the head's promised start may slip for the
// configured backfill kind, relative to its first promise.
func (s *simulator) allowance(p int, head *pending) float64 {
	// The adaptive arm lives in its own function to keep this one under the
	// inlining budget; it is called on every blocked scheduling pass.
	switch s.opt.Backfill {
	case Relaxed:
		expectedWait := head.promised - head.submit
		if expectedWait < 0 {
			expectedWait = 0
		}
		return s.opt.RelaxFactor * expectedWait
	case AdaptiveRelaxed:
		return s.adaptiveAllowance(p, head)
	default: // EASY
		return 0
	}
}

// adaptiveAllowance scales the relaxation budget by current queue pressure.
func (s *simulator) adaptiveAllowance(p int, head *pending) float64 {
	expectedWait := head.promised - head.submit
	if expectedWait < 0 {
		expectedWait = 0
	}
	maxQ := s.opt.MaxQueueLen
	if maxQ <= 0 {
		maxQ = s.maxQueueSeen
	}
	if maxQ <= 0 {
		maxQ = 1
	}
	frac := float64(s.parts[p].q.len()) / float64(maxQ)
	if frac > 1 {
		frac = 1
	}
	return s.opt.RelaxFactor * frac * expectedWait
}

// buildProfile materializes partition p's availability profile at now into
// the partition's scratch profile, for conservative backfilling: its
// reservations need the whole step function, while the other kinds only
// ask for the head's shadow, which schedule scans straight from the
// AvailSet. The planned ends are maintained incrementally by start/release,
// so a rebuild is a linear fold with no sorting and, in the steady state,
// no allocation — and rebuilds are themselves cached while profKey holds
// (see availKey), so bursts of arrivals between completions reuse one
// build. conservativePass only reads the scratch profile (reservations go
// into its own persistent copy), so the cache also survives its passes.
func (s *simulator) buildProfile(p int) *profile {
	ps := &s.parts[p]
	free := s.cl.Free(p)
	if ps.profValid && ps.profKey.holds(ps.avail.ver, free, s.now) {
		return &ps.prof
	}
	nextEnd := ps.avail.buildInto(&ps.prof, s.now, free)
	ps.profValid = true
	ps.profKey = availKey{ver: ps.avail.ver, free: free, nextEnd: nextEnd}
	return &ps.prof
}

// backfillPass tries to start one queued job (after the head) that fits now
// and either finishes before the deadline or fits inside the extra cores
// not needed by the head's reservation. started reports whether a job was
// dispatched; relaxed reports whether that job needed the relaxation
// window to be admitted (it neither fit the extra cores nor finished by
// base, the zero-allowance deadline, so only the relaxed deadline let it
// in — always false for EASY, where deadline == base).
// Rejections are memoized per job. A rejected candidate either had
// procs > free, or procs > extra and now+reqTime > deadline+1e-9; both
// conditions are monotone — free/extra/deadline tightening keeps them true,
// simulation time only advances, and float addition is monotone in rounding
// (now' >= now implies now'+reqTime >= now+reqTime) — so the rejection
// stays proven for as long as the conditions never loosen. The memo tracks
// that as a generation: each rejected job is stamped with the current
// generation, whose recorded (free, extra, deadline) ratchet tighter with
// every scan; a scan under looser conditions (more cores freed, a wider
// AdaptiveRelaxed allowance, a new head's deadline) opens a fresh
// generation, orphaning every stamp. Stamping is per job rather than a
// scanned-prefix summary because queue order follows the policy, not
// arrival order: an admitting scan examines only a prefix of positions, and
// nothing relates those positions to the jobs a later scan visits.
// Skipping provably inadmissible candidates cannot change which queue
// position holds the first admissible job, so the dispatch — and the
// relaxed verdict, computed fresh on admission — is identical to the full
// scan's. The payoff is congested queues: scans revisit each parked job
// once per generation instead of once per pass.
func (s *simulator) backfillPass(p int, deadline, base float64, extra int) (started, relaxed bool) {
	ps := &s.parts[p]
	free := s.cl.Free(p)
	fs := &ps.failScan
	if !(fs.valid && free <= fs.free && extra <= fs.extra && deadline <= fs.deadline) {
		ps.scanGen++
		fs.valid = true
		fs.stamp = ps.scanGen
	}
	fs.free, fs.extra, fs.deadline = free, extra, deadline
	stamp := fs.stamp
	live := ps.q.live()
	slots := s.slots
	// The scan runs off the queue's sequential mirrors; a pending is only
	// read once a job passes the stamp and size screens and its
	// runtime must be checked. Loop invariants are hoisted by hand (the
	// stamp stores below could alias the simulator for all the compiler
	// knows, so s.now would be reloaded every iteration otherwise); the
	// epsilon sums are per-scan constants, each job's comparison unchanged.
	stamps, procsArr := ps.q.liveMirrors()
	now := s.now
	dl := deadline + 1e-9
	minProcs := int(procsArr[0]) // queue reorders can rotate the head into the body
	for pos := 1; pos < len(live); pos++ {
		pr := int(procsArr[pos])
		if pr < minProcs {
			minProcs = pr
		}
		if stamps[pos] == stamp {
			continue
		}
		if pr > free {
			stamps[pos] = stamp
			slots[live[pos]].scanStamp = stamp
			continue
		}
		c := &slots[live[pos]]
		if now+c.reqTime <= dl || pr <= extra {
			relaxed = pr > extra && now+c.reqTime > base+1e-9
			s.start(p, pos)
			return true, relaxed
		}
		stamps[pos] = stamp
		c.scanStamp = stamp
	}
	// The scan visited every queued job, so the bound is exact again.
	ps.fitBound = minProcs
	return false, false
}

// result assembles the metrics of a materialized run from its one row
// page.
func (s *simulator) result(tr *trace.Trace) (*Result, error) {
	rows := &s.rows.pages[0]
	res := &Result{
		Jobs:           append([]trace.Job(nil), rows.jobs...),
		Violations:     s.violations,
		ViolationDelay: s.violationDelay,
		Backfilled:     s.backfilled,
		MaxQueueLen:    s.maxQueueSeen,
		Makespan:       s.makespan,
		QueueTimeline:  s.timeline,
		PromisedStart:  rows.promised,
	}
	if f := s.flt; f != nil {
		res.Interrupted = f.interrupts
		res.Requeued = f.requeues
		res.FaultFailed = f.failed
		res.GoodputCoreSeconds = f.goodput
		res.WastedCoreSeconds = f.wasted
		for i := range res.Jobs {
			if f.dead[i] {
				res.Jobs[i].Status = trace.Failed
			}
		}
	}
	var sumWait, sumBsld float64
	tau := s.opt.BsldTau
	for i := range res.Jobs {
		w := rows.waits[i]
		res.Jobs[i].Wait = w
		sumWait += w
		// Job.BoundedSlowdown inlined (identical branches and float ops, so
		// the sum is bit-identical); the method's by-value receiver would
		// copy the whole Job record per call on this hot summary loop.
		// Every job has started here, so wait >= 0 and turnaround = wait+run.
		run := res.Jobs[i].Run
		r := run
		if r < tau {
			r = tau
		}
		if r <= 0 {
			sumBsld++
			continue
		}
		bsld := (w + run) / r
		if bsld < 1 {
			bsld = 1
		}
		sumBsld += bsld
	}
	n := float64(len(res.Jobs))
	if n > 0 {
		res.AvgWait = sumWait / n
		res.AvgBsld = sumBsld / n
	}
	if s.makespan > 0 {
		res.Utilization = s.cl.Utilization(s.makespan)
	}
	return res, nil
}
