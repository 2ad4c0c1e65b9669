package twin

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"crosssched/internal/fault"
	"crosssched/internal/par"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// ParsePolicy is sim.ParsePolicy, case-insensitively ("sjf" == "SJF") —
// the twin's wire format is typed by humans and curl scripts.
func ParsePolicy(s string) (sim.Policy, error) {
	for _, p := range sim.Policies {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
	}
	return sim.FCFS, fmt.Errorf("twin: unknown policy %q", s)
}

// ParseBackfill is sim.ParseBackfill, case-insensitively.
func ParseBackfill(s string) (sim.BackfillKind, error) {
	for _, b := range sim.Backfills {
		if strings.EqualFold(b.String(), s) {
			return b, nil
		}
	}
	return sim.NoBackfill, fmt.Errorf("twin: unknown backfill %q", s)
}

// Candidate is one scheduling configuration a what-if query evaluates.
type Candidate struct {
	// Policy and Backfill name a sim.Policy / sim.BackfillKind ("fcfs",
	// "sjf", ..., "easy", "conservative", ...). Empty means the session's
	// baseline value.
	Policy   string `json:"policy,omitempty"`
	Backfill string `json:"backfill,omitempty"`
	// RelaxFactor tunes relaxed/adaptive backfilling (0 = default 0.10).
	RelaxFactor float64 `json:"relax,omitempty"`
	// Faults is a fault.ParseSpec scenario injected into the fork (e.g.
	// "mtbf=86400,mttr=3600,frac=0.25,recovery=requeue"). Its RNG is keyed
	// by the what-if seed unless the spec pins its own.
	Faults string `json:"faults,omitempty"`
}

// WhatIfRequest asks a session to fork and compare candidates.
type WhatIfRequest struct {
	Candidates []Candidate `json:"candidates"`
	// Seed overrides the session seed for fault injection in this query.
	Seed *uint64 `json:"seed,omitempty"`
}

// Outcome is one candidate's scored replay. Wait/bsld aggregate over the
// jobs still pending (not yet started) at the session clock — the jobs the
// recommendation can still help — while util and makespan cover the whole
// replay. Deltas are candidate minus baseline: negative wait/bsld deltas
// and positive util deltas are improvements.
type Outcome struct {
	Rank      int       `json:"rank"`
	Candidate Candidate `json:"candidate"`

	AvgWait     float64 `json:"avg_wait"`
	AvgBsld     float64 `json:"avg_bsld"`
	Utilization float64 `json:"util"`
	Makespan    float64 `json:"makespan"`
	Violations  int     `json:"violations"`
	Backfilled  int     `json:"backfilled"`
	// Fault-injection outcomes (zero without a fault spec).
	Interrupted int `json:"interrupted,omitempty"`
	FaultFailed int `json:"fault_failed,omitempty"`

	DeltaWait float64 `json:"d_wait"`
	DeltaBsld float64 `json:"d_bsld"`
	DeltaUtil float64 `json:"d_util"`
}

// Report is a ranked what-if reply. For a fixed session state and seed it
// is byte-identical across worker counts: candidate runs are indexed, the
// simulator is deterministic, and ranking ties break by candidate order.
type Report struct {
	Session     string    `json:"session"`
	Now         float64   `json:"now"`
	Seed        uint64    `json:"seed"`
	PendingJobs int       `json:"pending_jobs"`
	Baseline    Outcome   `json:"baseline"`
	Ranking     []Outcome `json:"ranking"`
}

// WhatIf forks the twin and runs every candidate configuration over the
// submission log concurrently on the internal/par pool, returning the
// ranked outcomes. Each candidate — fault-injected ones included — runs a
// fork of a checkpoint of its own configuration held at the session clock
// (see fork), so only the schedule from the clock on is simulated; the fork
// is still a counterfactual of the whole log (jobs already dispatched are
// re-scheduled under the candidate too), but scoring is restricted to the
// still-pending jobs so committed work does not drown the signal. The
// baseline the deltas compare against is one more fork — of the session's
// own baseline checkpoint — unless it is cached from an earlier query over
// the same log, and a candidate on the baseline's configuration takes the
// baseline's result.
func (s *Session) WhatIf(ctx context.Context, req WhatIfRequest) (*Report, error) {
	if len(req.Candidates) == 0 {
		return nil, fmt.Errorf("twin: what-if needs at least one candidate")
	}
	if len(req.Candidates) > s.limits.MaxCandidates {
		return nil, fmt.Errorf("%w: %d candidates exceed cap %d",
			ErrBudget, len(req.Candidates), s.limits.MaxCandidates)
	}
	seed := s.cfg.Seed
	if req.Seed != nil {
		seed = *req.Seed
	}

	// Snapshot session state; the jobs slice is append-only so sharing the
	// prefix with concurrent submissions is safe. The baseline fork is
	// taken under the lock so it matches the snapshot even if a Submit
	// extends the checkpoint before the fork runs.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	now := s.now
	jobs := s.jobs[:len(s.jobs):len(s.jobs)]
	base := s.baseRes
	var baseFork *sim.Fork
	if base == nil && len(jobs) > 0 {
		var err error
		if baseFork, err = s.base.Fork(); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("twin: baseline fork: %w", err)
		}
	}
	s.mu.Unlock()

	if len(jobs) == 0 {
		return nil, fmt.Errorf("%w: session has no jobs", ErrEmpty)
	}

	// Resolve candidates up front so a bad spec fails before the fan-out.
	opts := make([]sim.Options, len(req.Candidates))
	for i, c := range req.Candidates {
		opt, err := s.candidateOptions(c, seed)
		if err != nil {
			return nil, fmt.Errorf("twin: candidate %d: %w", i, err)
		}
		opts[i] = opt
	}

	tr := s.traceOf(jobs)

	// A candidate on the baseline configuration takes the baseline's own
	// result; every other one runs a fork of its configuration at the clock.
	baseKey := configKey(s.baseOptions())
	isBase := make([]bool, len(opts))
	for i := range opts {
		isBase[i] = configKey(opts[i]) == baseKey
	}

	// The baseline fork, when present, is the fan-out's first item, and
	// its clone is dropped once run, so it is not held through the rest.
	forked := baseFork != nil
	off := 0
	if forked {
		off = 1
	}
	results := make([]*sim.Summary, len(opts))
	err := par.ForEach(ctx, off+len(opts), func(ctx context.Context, i int) error {
		if i < off {
			f := baseFork
			baseFork = nil
			var err error
			if base, err = f.RunSummary(ctx); err != nil {
				return fmt.Errorf("twin: baseline: %w", err)
			}
			return nil
		}
		i -= off
		if isBase[i] {
			return nil // filled from the baseline below
		}
		f, err := s.fork(opts[i], tr, now)
		if err == nil {
			results[i], err = f.RunSummary(ctx)
		}
		if err != nil {
			return fmt.Errorf("twin: candidate %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if forked {
		s.mu.Lock()
		if len(s.jobs) == len(jobs) && !s.closed {
			s.baseRes = base // no Submit since the snapshot
		}
		s.mu.Unlock()
	}
	for i := range results {
		if isBase[i] {
			results[i] = base
		}
	}
	return buildReport(s.ID, s.cfg, now, seed, req.Candidates, jobs, base, results)
}

// buildReport scores the candidates' full-run summaries of the log jobs
// against the baseline's on the jobs still pending at now under the
// baseline, and ranks them. results[i] belongs to cands[i].
func buildReport(id string, cfg SessionConfig, now float64, seed uint64, cands []Candidate, jobs []trace.Job, base *sim.Summary, results []*sim.Summary) (*Report, error) {
	// pending: jobs that have not started at the clock under the baseline
	// (strictly-before semantics, matching event publication).
	pending := make([]bool, len(jobs))
	nPending := 0
	for i := range jobs {
		if jobs[i].Submit+base.Waits[i] >= now {
			pending[i] = true
			nPending++
		}
	}
	if nPending == 0 {
		return nil, fmt.Errorf("%w: every job has already started at t=%v", ErrEmpty, now)
	}

	rep := &Report{
		Session:     id,
		Now:         now,
		Seed:        seed,
		PendingJobs: nPending,
		Baseline:    score(Candidate{Policy: cfg.Policy.String(), Backfill: cfg.Backfill.String(), RelaxFactor: cfg.RelaxFactor}, jobs, base, pending, nPending),
	}
	rep.Ranking = make([]Outcome, len(results))
	for i, res := range results {
		out := score(cands[i], jobs, res, pending, nPending)
		out.DeltaWait = out.AvgWait - rep.Baseline.AvgWait
		out.DeltaBsld = out.AvgBsld - rep.Baseline.AvgBsld
		out.DeltaUtil = out.Utilization - rep.Baseline.Utilization
		rep.Ranking[i] = out
	}
	order := make([]int, len(rep.Ranking))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		oa, ob := &rep.Ranking[order[a]], &rep.Ranking[order[b]]
		if oa.AvgWait != ob.AvgWait {
			return oa.AvgWait < ob.AvgWait
		}
		if oa.AvgBsld != ob.AvgBsld {
			return oa.AvgBsld < ob.AvgBsld
		}
		if oa.Utilization != ob.Utilization {
			return oa.Utilization > ob.Utilization
		}
		return order[a] < order[b] // deterministic tie-break: request order
	})
	ranked := make([]Outcome, len(order))
	for rank, idx := range order {
		ranked[rank] = rep.Ranking[idx]
		ranked[rank].Rank = rank + 1
	}
	rep.Ranking = ranked
	return rep, nil
}

// candidateOptions translates a wire candidate into simulator options.
func (s *Session) candidateOptions(c Candidate, seed uint64) (sim.Options, error) {
	opt := s.baseOptions()
	var err error
	if c.Policy != "" {
		if opt.Policy, err = ParsePolicy(c.Policy); err != nil {
			return opt, err
		}
	}
	if c.Backfill != "" {
		if opt.Backfill, err = ParseBackfill(c.Backfill); err != nil {
			return opt, err
		}
	}
	if c.RelaxFactor != 0 {
		if c.RelaxFactor < 0 {
			return opt, fmt.Errorf("negative relax factor %v", c.RelaxFactor)
		}
		opt.RelaxFactor = c.RelaxFactor
	}
	if c.Faults != "" {
		fc, err := fault.ParseSpec(c.Faults)
		if err != nil {
			return opt, err
		}
		if fc.Seed == 0 {
			fc.Seed = seed
		}
		if err := fc.Validate(s.cfg.Partitions); err != nil {
			return opt, err
		}
		opt.Faults = fc
	}
	return opt, nil
}

// fork returns a paused simulation of one candidate configuration at the
// query snapshot — the log tr and the clock now — ready to run. Forks are
// taken per fan-out worker, so at most one per worker is alive.
//
// The session's warm table entry for the configuration serves it: created
// on first use, then extended with the log suffix, advanced to the clock
// and forked, all under one warmMu hold, so a concurrent query cannot move
// the entry between catch-up and fork. A broken entry is replaced by a
// fresh build. When no entry can serve the snapshot — the table is at
// MaxCandidates, or a concurrent query with a longer log already moved the
// entry past it (the entry is kept) — the fork comes from a transient
// checkpoint built for this snapshot and dropped after.
//
// The Extend precondition — suffix jobs arrive at or after the pause time —
// holds by construction: the pause time is always some earlier session
// clock, the clock is monotone, and Submit clamps every appended job to at
// least the clock at append time. A fault candidate's Extend splices its
// recompiled outage schedule into the paused run while that earlier clock
// lies at or before the log's last submit — the submit-then-query pattern;
// after a query made once the clock had passed every submit, the next
// Extend may rebuild the checkpoint by one run of the log (see
// sim.Checkpoint.Extend).
func (s *Session) fork(opt sim.Options, tr *trace.Trace, now float64) (*sim.Fork, error) {
	s.warmMu.Lock()
	f, err := s.forkWarm(opt, tr, now)
	s.warmMu.Unlock()
	if f != nil || err != nil {
		return f, err
	}
	ck, err := sim.RunToCheckpoint(tr, opt, now)
	if err != nil {
		return nil, err
	}
	return ck.Fork()
}

// forkWarm is fork's warm-table half, called with warmMu held. It returns
// a nil fork and error when no table entry can serve the snapshot.
func (s *Session) forkWarm(opt sim.Options, tr *trace.Trace, now float64) (*sim.Fork, error) {
	key := configKey(opt)
	if ck := s.warm[key]; ck != nil {
		n := ck.Len()
		if n > len(tr.Jobs) || ck.PausedAt() > now {
			return nil, nil
		}
		err := ck.Extend(tr.Jobs[n:])
		if err == nil {
			err = ck.AdvanceTo(now)
		}
		var f *sim.Fork
		if err == nil {
			f, err = ck.Fork()
		}
		if err == nil {
			return f, nil
		}
		delete(s.warm, key) // broken: the fresh build below replaces it
	}
	if len(s.warm) >= s.limits.MaxCandidates {
		return nil, nil
	}
	ck, err := sim.RunToCheckpoint(tr, opt, now)
	if err != nil {
		return nil, err
	}
	if s.warm == nil {
		s.warm = make(map[string]*sim.Checkpoint)
	}
	s.warm[key] = ck
	return ck.Fork()
}

// configKey names a scheduling configuration: the warm table's key, and
// how a candidate is recognized as the baseline's own. A fault scenario
// adds its canonical spec, which carries the effective seed, so a query's
// seed override gets its own entry.
func configKey(opt sim.Options) string {
	key := fmt.Sprintf("%s|%s|%g", opt.Policy, opt.Backfill, opt.RelaxFactor)
	if opt.Faults.Enabled() {
		key += "|" + opt.Faults.Spec()
	}
	return key
}

// score aggregates one replay of jobs over the pending set.
func score(c Candidate, jobs []trace.Job, res *sim.Summary, pending []bool, nPending int) Outcome {
	tau := sim.Options{}.WithDefaults().BsldTau // the twin never sets BsldTau
	var waitSum, bsldSum float64
	for i := range pending {
		if !pending[i] {
			continue
		}
		wait, run := res.Waits[i], jobs[i].Run
		waitSum += wait
		r := run
		if r < tau {
			r = tau
		}
		bsld := (wait + run) / r
		if bsld < 1 {
			bsld = 1
		}
		bsldSum += bsld
	}
	return Outcome{
		Candidate:   c,
		AvgWait:     waitSum / float64(nPending),
		AvgBsld:     bsldSum / float64(nPending),
		Utilization: res.Utilization,
		Makespan:    res.Makespan,
		Violations:  res.Violations,
		Backfilled:  res.Backfilled,
		Interrupted: res.Interrupted,
		FaultFailed: res.FaultFailed,
	}
}
