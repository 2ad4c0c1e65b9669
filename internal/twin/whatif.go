package twin

import (
	"context"
	"fmt"
	"slices"
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
// ranked outcomes. Each distinct configuration — the baseline's, which the
// deltas compare against, and each candidate's, fault-injected ones
// included — runs one fork of a checkpoint of that configuration held at
// the session clock (see snapshotForks), so only the schedule from the
// clock on is simulated. A fork is still a counterfactual of the whole log
// (jobs already dispatched are re-scheduled under the candidate too), but
// scoring is restricted to the still-pending jobs so committed work does
// not drown the signal. Candidates with one configuration share its run,
// and a candidate on the baseline's configuration takes the baseline's.
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

	// Resolve the candidates up front so a bad spec fails before any work,
	// and dedupe them by configuration: run[i] indexes candidate i's in
	// opts, where configuration 0 is the baseline's.
	opts := []sim.Options{s.baseOptions()}
	keys := []string{configKey(opts[0])}
	run := make([]int, len(req.Candidates))
	for i, c := range req.Candidates {
		opt, err := s.candidateOptions(c, seed)
		if err != nil {
			return nil, fmt.Errorf("twin: candidate %d: %w", i, err)
		}
		key := configKey(opt)
		if run[i] = slices.Index(keys, key); run[i] < 0 {
			run[i] = len(opts)
			opts = append(opts, opt)
			keys = append(keys, key)
		}
	}

	now, jobs, forks, err := s.snapshotForks(ctx, opts, keys)
	if err != nil {
		return nil, err
	}
	sums := make([]*sim.Summary, len(forks))
	err = par.ForEach(ctx, len(forks), func(ctx context.Context, i int) error {
		f := forks[i]
		forks[i] = nil // drop the clone once run
		var err error
		if sums[i], err = f.RunSummary(ctx); err != nil {
			return fmt.Errorf("twin: what-if %s: %w", keys[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]*sim.Summary, len(run))
	for i, k := range run {
		results[i] = sums[k]
	}
	return buildReport(s.ID, s.cfg, now, seed, req.Candidates, jobs, sums[0], results)
}

// snapshotForks takes a what-if's snapshot — the clock and the log — and
// one paused fork at it per configuration: opts[0], the baseline's, forks
// the session's own checkpoint under s.mu, and every other one forks its
// warm table entry, caught up to the snapshot with forkWarm. The whole
// step holds warmMu (lock order warmMu → s.mu), so snapshots are taken in
// warmMu order and no entry is ever ahead of a query's snapshot. Entries
// are separate checkpoints, so they catch up concurrently. A fresh build
// is kept while the table holds fewer than MaxCandidates entries;
// otherwise it is forked and dropped.
func (s *Session) snapshotForks(ctx context.Context, opts []sim.Options, keys []string) (float64, []trace.Job, []*sim.Fork, error) {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	forks := make([]*sim.Fork, len(opts))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, nil, nil, ErrClosed
	}
	now := s.now
	jobs := s.jobs[:len(s.jobs):len(s.jobs)] // append-only: the prefix is shared safely
	var err error
	if len(jobs) > 0 {
		forks[0], err = s.base.Fork()
	}
	s.mu.Unlock()
	if len(jobs) == 0 {
		return 0, nil, nil, fmt.Errorf("%w: session has no jobs", ErrEmpty)
	}
	if err != nil {
		return 0, nil, nil, fmt.Errorf("twin: baseline fork: %w", err)
	}

	// The table is read and written here only, outside the fan-out; which
	// fresh builds fit the budget is settled up front, in configuration
	// order.
	cks := make([]*sim.Checkpoint, len(opts))
	keep := make([]bool, len(opts))
	free := s.limits.MaxCandidates - len(s.warm)
	for i := 1; i < len(opts); i++ {
		cks[i] = s.warm[keys[i]]
		keep[i] = cks[i] != nil || free > 0
		if cks[i] == nil {
			free--
		}
	}
	tr := s.traceOf(jobs)
	err = par.ForEach(ctx, len(opts)-1, func(_ context.Context, i int) error {
		i++
		f, ck, err := forkWarm(cks[i], opts[i], tr, now)
		if !keep[i] {
			ck = nil
		}
		forks[i], cks[i] = f, ck
		if err != nil {
			return fmt.Errorf("twin: what-if %s: %w", keys[i], err)
		}
		return nil
	})
	if s.warm == nil {
		s.warm = make(map[string]*sim.Checkpoint)
	}
	for i := 1; i < len(opts); i++ {
		if cks[i] != nil {
			s.warm[keys[i]] = cks[i]
		} else {
			delete(s.warm, keys[i]) // none kept, or a broken one not rebuilt
		}
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return now, jobs, forks, nil
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

// forkWarm catches ck — the warm table entry of opt's configuration, nil
// when there is none — up to a what-if's snapshot, the log tr and the clock
// now, by extending it with the log suffix and advancing it to the clock,
// and forks it. A missing or broken entry is replaced by a fresh build,
// returned in ck's place.
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
func forkWarm(ck *sim.Checkpoint, opt sim.Options, tr *trace.Trace, now float64) (*sim.Fork, *sim.Checkpoint, error) {
	if ck != nil {
		err := ck.Extend(tr.Jobs[ck.Len():])
		if err == nil {
			err = ck.AdvanceTo(now)
		}
		var f *sim.Fork
		if err == nil {
			f, err = ck.Fork()
		}
		if err == nil {
			return f, ck, nil
		}
	}
	ck, err := sim.RunToCheckpoint(tr, opt, now)
	if err != nil {
		return nil, nil, err
	}
	f, err := ck.Fork()
	return f, ck, err
}

// configKey names a scheduling configuration: the warm table's key, and
// how a what-if dedupes its candidates, the baseline's configuration
// included. A fault scenario adds its canonical spec, which carries the
// effective seed, so a query's seed override gets its own entry.
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
		wait := res.Waits[i]
		waitSum += wait
		bsldSum += trace.Bsld(wait, jobs[i].Run, tau)
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
