package twin

import (
	"errors"
	"fmt"
	"sync"

	"crosssched/internal/cluster"
	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// SessionConfig describes one twin: the mirrored cluster's shape and the
// baseline scheduling configuration the twin replays under.
type SessionConfig struct {
	// Profile names a calibrated synth system ("Philly", "Mira", ...)
	// whose cluster geometry (total cores, virtual clusters) the twin
	// mirrors. Empty means use Cores/Partitions directly.
	Profile string
	// Cores and Partitions give the cluster shape explicitly when Profile
	// is empty. Partitions <= 1 means one shared pool; at most 1024.
	Cores      int
	Partitions int
	// Policy and Backfill are the baseline scheduling configuration; the
	// twin's published schedule and the what-if deltas are relative to it.
	Policy   sim.Policy
	Backfill sim.BackfillKind
	// RelaxFactor configures relaxed/adaptive backfilling (0 = default).
	RelaxFactor float64
	// Seed keys fault injection in what-if candidates (the fault-free
	// replay itself is deterministic without it).
	Seed uint64
	// TickRate, when positive, advances the session clock by TickRate
	// simulated seconds per wall-clock second via the manager's ticker.
	// Zero means the clock only moves on explicit Advance calls.
	TickRate float64
}

// JobSpec is one submitted job, the wire form of a trace.Job the client
// controls.
type JobSpec struct {
	// Procs is the requested core/GPU count (required, >= 1).
	Procs int `json:"procs"`
	// Run is the job's runtime in seconds (required, > 0) — the twin knows
	// ground truth, like the simulator.
	Run float64 `json:"run"`
	// Walltime is the requested limit the scheduler plans against
	// (optional; 0 falls back to Run).
	Walltime float64 `json:"walltime,omitempty"`
	// User is the submitting user (optional, >= 0).
	User int `json:"user,omitempty"`
	// VC pins the job to one virtual cluster; nil/-1 lets the twin place
	// it (user-hash, matching the simulator).
	VC *int `json:"vc,omitempty"`
	// Submit is the requested submission time on the session clock
	// (optional). It is clamped so the log stays causal: never before the
	// session clock or an earlier submission.
	Submit float64 `json:"submit,omitempty"`
}

// Session is one digital twin. All methods are safe for concurrent use.
type Session struct {
	ID string

	cfg    SessionConfig
	limits Config
	caps   []int // per-partition capacities

	mu  sync.Mutex
	now float64
	// jobs is the submission log: the baseline checkpoint's own trace,
	// shared read-only (nil while empty).
	jobs []trace.Job
	// base is the baseline schedule: one simulation paused at the clock,
	// built with the log's first batch (nil while the log is empty).
	// Submit extends it and advancing the clock runs it forward, so no
	// mutation replays the log. Its tap records every event it processes —
	// exactly the events strictly before the clock, i.e. the published
	// prefix — and keeps the job-class counters Status reports.
	base *sim.Checkpoint
	tap  baseTap
	// baseRes is the Summary of the baseline's full run, which depends on
	// the log but not on the clock: computed by a what-if's fork of base
	// and kept until the next Submit.
	baseRes *sim.Summary
	hub     *obs.Hub
	closed  bool

	// jr is the session's write-ahead journal (nil for in-memory-only
	// sessions). A failed journal write flips ephemeral: the journal is
	// dropped, onDegrade (a manager metrics hook) fires once, subscribers
	// get an in-band notice, and the session keeps serving from memory —
	// durability degrades, availability does not.
	jr        *journal
	ephemeral bool
	onDegrade func()

	// warm holds one paused simulation per candidate configuration (keyed
	// policy|backfill|relax, plus the fault spec of a fault-injected one;
	// see configKey), kept at the session clock so a what-if forks it
	// instead of replaying from t=0. Guarded by its own mutex: warming up
	// serializes, but forks run outside it and never block Submit/Advance
	// on s.mu.
	warmMu sync.Mutex
	warm   map[string]*sim.Checkpoint
}

// baseTap observes the baseline checkpoint's own run (never its forks).
// Events arrive in time order under the session lock; job IDs are dense log
// indexes.
type baseTap struct {
	events []obs.Event // the published decision-event prefix
	waits  []float64   // wait of each started job, by job ID
	// Job-class counters: arrivals, starts, and completions processed so
	// far, plus the wait total of completed jobs in completion order.
	arrived, started, completed int
	waitSum                     float64
}

// Observe implements obs.Observer.
func (t *baseTap) Observe(e obs.Event) {
	t.events = append(t.events, e)
	switch e.Kind {
	case obs.JobSubmit:
		t.arrived++
	case obs.JobStart:
		t.started++
		for len(t.waits) <= e.Job {
			t.waits = append(t.waits, 0)
		}
		t.waits[e.Job] = e.Detail
	case obs.JobComplete:
		t.completed++
		t.waitSum += t.waits[e.Job]
	}
}

// maxPartitions bounds a session's partition count (Philly, the most
// partitioned profile, has 14 virtual clusters).
const maxPartitions = 1024

// newSession validates the config and builds the session.
func newSession(id string, cfg SessionConfig, limits Config) (*Session, error) {
	if cfg.Profile != "" {
		p, err := synth.ByName(cfg.Profile, 1)
		if err != nil {
			return nil, err
		}
		cfg.Cores = p.Sys.TotalCores
		cfg.Partitions = p.Sys.VirtualClusters
	}
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("twin: session needs a cluster: give profile or cores >= 1 (got %d)", cfg.Cores)
	}
	if cfg.TickRate < 0 {
		return nil, fmt.Errorf("twin: negative tick rate %v", cfg.TickRate)
	}
	if cfg.Partitions > cfg.Cores {
		return nil, fmt.Errorf("twin: %d partitions over %d cores leaves empty partitions", cfg.Partitions, cfg.Cores)
	}
	if cfg.Partitions > maxPartitions {
		// Per-partition state is allocated up front and scanned on every
		// event, so an unbounded count is a memory and CPU bomb.
		return nil, fmt.Errorf("twin: %d partitions exceeds the limit of %d", cfg.Partitions, maxPartitions)
	}
	return &Session{
		ID:     id,
		cfg:    cfg,
		limits: limits,
		caps:   cluster.EvenPartitions(cfg.Cores, cfg.Partitions),
		hub:    obs.NewHub(limits.MaxSubscribers),
	}, nil
}

// startBaseline builds the baseline checkpoint over jobs, run up to now
// with the tap attached. Caller holds s.mu.
func (s *Session) startBaseline(jobs []trace.Job, now float64) error {
	s.tap = baseTap{}
	opt := s.baseOptions()
	opt.Observer = &s.tap
	ck, err := sim.RunToCheckpoint(s.traceOf(jobs), opt, now)
	if err != nil {
		return fmt.Errorf("twin: baseline replay: %w", err)
	}
	s.base = ck
	s.jobs = ck.Jobs()
	s.baseRes = nil
	return nil
}

// Config returns the resolved session configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// attachJournal wires a journal (already holding the session's create
// record) and the degradation hook into the session. Called once, before
// the session is published to other goroutines.
func (s *Session) attachJournal(jr *journal, onDegrade func()) {
	s.jr = jr
	s.onDegrade = onDegrade
}

// journalAppendLocked writes one record, degrading the session to
// ephemeral mode on failure. It never fails the caller's operation: the
// in-memory state change proceeds, only durability is lost. Callers hold
// s.mu.
func (s *Session) journalAppendLocked(rec *record) {
	if s.jr == nil {
		return
	}
	err := s.jr.append(rec)
	if err == nil {
		return
	}
	_ = s.jr.close()
	s.jr = nil
	s.ephemeral = true
	if s.onDegrade != nil {
		s.onDegrade()
	}
	s.hub.Notify(fmt.Sprintf(
		"journal write failed (%v); session %s is now ephemeral — state will not survive a restart", err, s.ID))
}

// durableLocked reports whether the session still has a live journal.
func (s *Session) durableLocked() bool { return s.jr != nil }

// restore rebuilds the session's state from journal records: the post-
// clamp job log is installed verbatim, the clock set, and the baseline
// checkpoint built by one run up to the clock. Because the twin is a
// deterministic replay of its log, the events that run taps — every event
// strictly before the clock — are exactly what the pre-crash session had
// published incrementally.
func (s *Session) restore(jobs []trace.Job, now float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range jobs {
		if jobs[i].ID != i {
			return fmt.Errorf("twin: restored job %d has ID %d, want dense log indexes", i, jobs[i].ID)
		}
	}
	if len(jobs) > 0 {
		if err := s.startBaseline(jobs, now); err != nil {
			return err
		}
	}
	s.now = now
	return nil
}

// EmittedPrefix returns a copy of the decision events the session has
// published so far — the byte-diff surface for crash-recovery tests and
// the /log endpoint.
func (s *Session) EmittedPrefix() ([]obs.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return append([]obs.Event(nil), s.tap.events...), nil
}

// Now returns the session clock.
func (s *Session) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Submit appends jobs to the log and returns their assigned job IDs (dense
// indexes, stable for the session's lifetime; decision events reference
// them). Submission times are clamped monotone: max(requested, clock,
// previous submission), so the log is always a valid causal trace.
func (s *Session) Submit(specs []JobSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("twin: empty submission")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.jobs)+len(specs) > s.limits.MaxJobs {
		return nil, fmt.Errorf("%w: session job cap %d (have %d, submitting %d)",
			ErrBudget, s.limits.MaxJobs, len(s.jobs), len(specs))
	}
	floor := s.now
	if n := len(s.jobs); n > 0 && s.jobs[n-1].Submit > floor {
		floor = s.jobs[n-1].Submit
	}
	ids := make([]int, 0, len(specs))
	staged := make([]trace.Job, 0, len(specs))
	for i, sp := range specs {
		vc := -1
		if sp.VC != nil {
			vc = *sp.VC
		}
		if err := s.validateSpec(i, sp, vc); err != nil {
			return nil, err
		}
		if sp.Submit > floor {
			floor = sp.Submit
		}
		id := len(s.jobs) + len(staged)
		staged = append(staged, trace.Job{
			ID:       id,
			User:     sp.User,
			Submit:   floor,
			Wait:     -1,
			Run:      sp.Run,
			Walltime: sp.Walltime,
			Procs:    sp.Procs,
			VC:       vc,
			Status:   trace.Passed,
		})
		ids = append(ids, id)
	}
	// Baseline first: it revalidates the jobs and is left untouched on
	// failure, so nothing is journaled for a rejected batch.
	if s.base == nil {
		if err := s.startBaseline(staged, s.now); err != nil {
			return nil, err
		}
	} else if err := s.base.Extend(staged); err != nil {
		return nil, fmt.Errorf("twin: baseline extend: %w", err)
	}
	s.journalAppendLocked(&record{Op: opSubmit, Jobs: toJournalJobs(staged)})
	s.jobs = s.base.Jobs()
	s.baseRes = nil // the full-run schedule beyond the clock changed
	return ids, nil
}

// validateSpec rejects jobs the cluster can never run.
func (s *Session) validateSpec(i int, sp JobSpec, vc int) error {
	switch {
	case sp.Procs <= 0:
		return fmt.Errorf("twin: job %d: procs must be >= 1 (got %d)", i, sp.Procs)
	case sp.Run <= 0:
		return fmt.Errorf("twin: job %d: run must be > 0 seconds (got %v)", i, sp.Run)
	case sp.Walltime < 0:
		return fmt.Errorf("twin: job %d: negative walltime %v", i, sp.Walltime)
	case sp.User < 0:
		return fmt.Errorf("twin: job %d: negative user %d", i, sp.User)
	case sp.Submit < 0:
		return fmt.Errorf("twin: job %d: negative submit %v", i, sp.Submit)
	case vc < -1 || vc >= s.cfg.Partitions:
		return fmt.Errorf("twin: job %d: vc %d out of range [0,%d)", i, vc, s.cfg.Partitions)
	}
	// The partition the simulator will pick must fit the job.
	part := 0
	if s.cfg.Partitions > 1 {
		part = vc
		if part < 0 {
			part = sp.User % s.cfg.Partitions
		}
	}
	if sp.Procs > s.caps[part] {
		return fmt.Errorf("twin: job %d: %d cores exceed partition %d capacity %d",
			i, sp.Procs, part, s.caps[part])
	}
	return nil
}

// AdvanceBy moves the clock forward by d seconds.
func (s *Session) AdvanceBy(d float64) error {
	if d < 0 {
		return fmt.Errorf("twin: cannot advance by negative %v", d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advanceLocked(s.now + d)
}

// AdvanceTo moves the clock to t (monotone: t < clock is an error).
func (s *Session) AdvanceTo(t float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.now {
		return fmt.Errorf("twin: cannot rewind clock from %v to %v", s.now, t)
	}
	return s.advanceLocked(t)
}

// advanceLocked sets the clock and publishes the newly-due decision
// events: running the baseline checkpoint forward to the new clock taps
// every event with Time STRICTLY before it. The strict bound keeps the
// published prefix stable — a future submission lands at Submit >= clock
// and can only change decisions at or after it.
func (s *Session) advanceLocked(to float64) error {
	if s.closed {
		return ErrClosed
	}
	if to > s.now {
		s.journalAppendLocked(&record{Op: opAdvance, To: to})
	}
	s.now = to
	if s.base == nil {
		return nil // empty log: nothing to schedule
	}
	from := len(s.tap.events)
	if err := s.base.AdvanceTo(to); err != nil {
		return fmt.Errorf("twin: baseline advance: %w", err)
	}
	for _, e := range s.tap.events[from:] {
		s.hub.Observe(e)
	}
	return nil
}

// traceOf wraps jobs in a trace of the session's cluster. The slice is
// shared read-only: the simulator treats input traces as immutable.
func (s *Session) traceOf(jobs []trace.Job) *trace.Trace {
	return &trace.Trace{
		System: trace.System{
			Name:            "twin:" + s.ID,
			Kind:            trace.HPC,
			TotalCores:      s.cfg.Cores,
			VirtualClusters: s.cfg.Partitions,
		},
		Jobs: jobs,
	}
}

// baseOptions is the session's baseline simulator configuration.
func (s *Session) baseOptions() sim.Options {
	return sim.Options{
		Policy:      s.cfg.Policy,
		Backfill:    s.cfg.Backfill,
		RelaxFactor: s.cfg.RelaxFactor,
	}
}

// Snapshot is the session's externally visible state at its clock.
type Snapshot struct {
	ID         string  `json:"id"`
	Now        float64 `json:"now"`
	Profile    string  `json:"profile,omitempty"`
	Cores      int     `json:"cores"`
	Partitions int     `json:"partitions"`
	Policy     string  `json:"policy"`
	Backfill   string  `json:"backfill"`
	Seed       uint64  `json:"seed"`
	TickRate   float64 `json:"tick_rate,omitempty"`

	// Jobs counts every submission; Completed/Running/Queued/Future classify
	// them by the baseline's decision events strictly before the clock (the
	// published prefix): completed, started but not completed, arrived but
	// not started, and not arrived yet.
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Running   int `json:"running"`
	Queued    int `json:"queued"`
	Future    int `json:"future"`
	// AvgWaitCompleted is the mean wait of completed jobs (0 when none),
	// summed in completion order.
	AvgWaitCompleted float64 `json:"avg_wait_completed"`
	// EventsEmitted counts decision events published to subscribers.
	EventsEmitted int `json:"events_emitted"`
	// Subscribers is the live SSE subscriber count.
	Subscribers int `json:"subscribers"`
	// Durable reports whether the session has a live write-ahead journal;
	// Ephemeral is set when it HAD one but lost it to a write failure.
	// Both false means the manager runs without a state directory.
	Durable   bool `json:"durable,omitempty"`
	Ephemeral bool `json:"ephemeral,omitempty"`
}

// Status reports the session's state at its clock, read from the
// baseline tap's counters.
func (s *Session) Status() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, ErrClosed
	}
	t := &s.tap
	snap := Snapshot{
		ID:            s.ID,
		Now:           s.now,
		Profile:       s.cfg.Profile,
		Cores:         s.cfg.Cores,
		Partitions:    s.cfg.Partitions,
		Policy:        s.cfg.Policy.String(),
		Backfill:      s.cfg.Backfill.String(),
		Seed:          s.cfg.Seed,
		TickRate:      s.cfg.TickRate,
		Jobs:          len(s.jobs),
		Completed:     t.completed,
		Running:       t.started - t.completed,
		Queued:        t.arrived - t.started,
		Future:        len(s.jobs) - t.arrived,
		EventsEmitted: len(t.events),
		Subscribers:   s.hub.Subscribers(),
		Durable:       s.durableLocked(),
		Ephemeral:     s.ephemeral,
	}
	if t.completed > 0 {
		snap.AvgWaitCompleted = t.waitSum / float64(t.completed)
	}
	return snap, nil
}

// Subscribe attaches a decision-event subscriber (bounded ring,
// drop-oldest). The caller must Unsubscribe when done.
func (s *Session) Subscribe() (*obs.Sub, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	sub, err := s.hub.Subscribe(s.limits.EventBuffer)
	switch {
	case err == nil:
		return sub, nil
	case errors.Is(err, obs.ErrClosed):
		return nil, ErrClosed
	default:
		return nil, fmt.Errorf("%w: %v", ErrBudget, err)
	}
}

// Unsubscribe detaches a subscriber obtained from Subscribe.
func (s *Session) Unsubscribe(sub *obs.Sub) { s.hub.Unsubscribe(sub) }

// Close tears the session down: subscribers are disconnected (after
// draining their buffers) and every later call fails with ErrClosed.
// Idempotent.
func (s *Session) Close() { s.closeReason("closed") }

// closeReason is Close carrying a terminal reason ("closed", "evicted",
// "parked") that subscribers read back once their buffers drain — the SSE
// layer turns it into the stream's final `event: gone` frame. The journal
// is flushed and closed first, so a parked session's directory is
// complete before anyone can reactivate it.
func (s *Session) closeReason(reason string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.jr != nil {
		_ = s.jr.close()
		s.jr = nil
	}
	s.dropBaselineLocked()
	s.mu.Unlock()
	s.warmMu.Lock()
	s.warm = nil // drop the checkpoint table; each holds a full simulator
	s.warmMu.Unlock()
	s.hub.CloseReason(reason)
}

// park closes the session for spill-to-disk eviction, reporting whether
// it actually had a journal to spill to. The no-journal case (ephemeral,
// in-memory-only, or already closed) returns false and leaves the caller
// to evict destructively. The journal-present check and the close are one
// critical section, so a concurrent write failure cannot park a session
// whose journal just died.
func (s *Session) park() bool {
	s.mu.Lock()
	if s.closed || s.jr == nil {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	_ = s.jr.close()
	s.jr = nil
	s.dropBaselineLocked()
	s.mu.Unlock()
	s.warmMu.Lock()
	s.warm = nil
	s.warmMu.Unlock()
	s.hub.CloseReason("parked")
	return true
}

// dropBaselineLocked releases the log, the baseline simulation and its
// event log once the session is closed (every later call fails with
// ErrClosed).
func (s *Session) dropBaselineLocked() {
	s.base = nil
	s.jobs = nil
	s.baseRes = nil
	s.tap = baseTap{}
}
