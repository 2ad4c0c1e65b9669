package sim

import (
	"math"
	"slices"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
)

// simFault is the simulator's per-run fault-injection state. It exists only
// when Options.Faults is enabled: the simulator holds a nil *simFault
// otherwise, so the zero-fault path pays exactly one nil check at each
// integration point and allocates nothing — the same pay-for-what-you-use
// contract as the observer.
//
// All per-job bookkeeping lives here rather than on the pending record so
// the hot pending/running layouts are untouched by the fault layer.
type simFault struct {
	cfg   *fault.Config
	sched *fault.Schedule
	next  int // next un-applied capacity event

	// Per-job state, indexed by submit-order job index.
	attempts      []int32   // completed (interrupted) attempts so far
	everStarted   []bool    // job has started at least once (waits/violations are first-attempt)
	lastStart     []float64 // start time of the current/last attempt
	credit        []float64 // banked checkpoint seconds (RecoveryCheckpoint)
	dead          []bool    // terminally failed by a fault
	willInterrupt []bool    // the job's in-flight attempt ends in an interrupt, not a completion

	// drained records, per compiled outage, how many cores were actually
	// taken down (an outage overlapping another may find less capacity up
	// than it asked for); the paired restore returns exactly that many.
	drained []int

	victims []running // scratch for outage victim selection

	retryCap int
	ckpt     float64

	// Wasted vs. goodput accounting, in core-seconds. Every attempt's
	// occupancy is classified when the attempt ends: completions are
	// goodput, interrupted attempts are wasted except for banked
	// checkpoint credit, and a terminal failure reclassifies the job's
	// banked credit as wasted. goodput + wasted therefore equals the busy
	// integral (up to float summation order), an invariant
	// check.AuditStream enforces on every fault run.
	goodput float64
	wasted  float64

	interrupts int
	requeues   int
	failed     int
}

// reset prepares the fault state for a run of nJobs jobs, reusing retained
// slice capacity.
func (f *simFault) reset(cfg *fault.Config, sched *fault.Schedule, nJobs int) {
	f.cfg = cfg
	f.sched = sched
	f.next = 0
	f.attempts = resetSlice(f.attempts, nJobs)
	f.everStarted = resetSlice(f.everStarted, nJobs)
	f.lastStart = resetSlice(f.lastStart, nJobs)
	f.credit = resetSlice(f.credit, nJobs)
	f.dead = resetSlice(f.dead, nJobs)
	f.willInterrupt = resetSlice(f.willInterrupt, nJobs)
	f.drained = resetSlice(f.drained, sched.Outages)
	f.victims = f.victims[:0]
	f.retryCap = cfg.RetryCap
	f.ckpt = cfg.CheckpointInterval
	f.goodput, f.wasted = 0, 0
	f.interrupts, f.requeues, f.failed = 0, 0, 0
}

// grow extends the per-job state by n later arrivals (Checkpoint.Extend).
func (f *simFault) grow(n int) {
	f.attempts = append(f.attempts, make([]int32, n)...)
	f.everStarted = append(f.everStarted, make([]bool, n)...)
	f.lastStart = append(f.lastStart, make([]float64, n)...)
	f.credit = append(f.credit, make([]float64, n)...)
	f.dead = append(f.dead, make([]bool, n)...)
	f.willInterrupt = append(f.willInterrupt, make([]bool, n)...)
}

// recompile returns the schedule a cold run compiles once the trace's last
// submit moves from h1 to h2 > h1, or nil when the schedule does not depend
// on it (no generated outages, or a pinned horizon). rebuild reports that
// the new schedule differs from the applied one before pause, so it cannot
// be spliced into the paused run. A nil receiver (no fault injection)
// returns nil, false, nil.
func (f *simFault) recompile(caps []int, h1, h2, pause float64) (sched *fault.Schedule, rebuild bool, err error) {
	if f == nil || f.cfg.MTBF <= 0 || f.cfg.Horizon > 0 || h2 == h1 {
		return nil, false, nil
	}
	if sched, err = f.cfg.Compile(caps, h2); err != nil {
		return nil, false, err
	}
	return sched, !f.spliceable(sched, pause), nil
}

// spliceable reports whether a run paused at pause under f.sched is also
// exactly where a cold run under sched pauses: sched's first f.next events
// are the ones already applied, in the same order, and its next event is
// at or past pause. Outage IDs may differ (generated outages are numbered
// partition by partition, so a longer horizon renumbers later
// partitions'); splice remaps them.
func (f *simFault) spliceable(sched *fault.Schedule, pause float64) bool {
	if len(sched.Events) < f.next {
		return false
	}
	for i, ev := range f.sched.Events[:f.next] {
		nv := sched.Events[i]
		if nv.Time != ev.Time || nv.Part != ev.Part || nv.Cores != ev.Cores || nv.Down != ev.Down || nv.Pair != ev.Pair {
			return false
		}
	}
	return f.next == len(sched.Events) || sched.Events[f.next].Time >= pause
}

// splice swaps in a spliceable schedule, carrying each applied outage's
// drained cores over to its ID in sched.
func (f *simFault) splice(sched *fault.Schedule) {
	drained := make([]int, sched.Outages)
	for i, ev := range f.sched.Events[:f.next] {
		if ev.Down {
			drained[sched.Events[i].ID] = f.drained[ev.ID]
		}
	}
	f.sched = sched
	f.drained = drained
}

// cloneInto deep-copies the fault state into dst for a checkpoint fork;
// the config and compiled schedule are immutable and shared.
func (f *simFault) cloneInto(dst *simFault) {
	*dst = *f
	dst.attempts = slices.Clone(f.attempts)
	dst.everStarted = slices.Clone(f.everStarted)
	dst.lastStart = slices.Clone(f.lastStart)
	dst.credit = slices.Clone(f.credit)
	dst.dead = slices.Clone(f.dead)
	dst.willInterrupt = slices.Clone(f.willInterrupt)
	dst.drained = slices.Clone(f.drained)
	dst.victims = nil
}

// resetSlice returns a zeroed slice of length n, reusing capacity.
func resetSlice[T comparable](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// nextTime returns the next capacity event's time, +Inf when none remain.
func (f *simFault) nextTime() float64 {
	if f.next < len(f.sched.Events) {
		return f.sched.Events[f.next].Time
	}
	return math.Inf(1)
}

// canRetry reports whether job idx may be requeued after an interruption.
func (f *simFault) canRetry(idx int32) bool {
	return f.cfg.Recovery != fault.RecoveryNone && int(f.attempts[idx]) < f.retryCap
}

// applyCapacityFaults applies every compiled capacity event due at or
// before t: drains interrupt enough running jobs (victims) to free the
// cores being taken, restores return exactly what the paired drain took.
func (s *simulator) applyCapacityFaults(t float64, touched []bool) error {
	f := s.flt
	for f.next < len(f.sched.Events) && f.sched.Events[f.next].Time <= t {
		ev := f.sched.Events[f.next]
		f.next++
		p := ev.Part
		if ev.Down {
			// Clamp to the capacity still up, so overlapping outages on one
			// partition never drive the effective capacity negative. The
			// paired restore brings back the clamped amount.
			n := ev.Cores
			if up := s.cl.Capacity(p) - s.cl.DownCores(p); n > up {
				n = up
			}
			f.drained[ev.ID] = n
			if n == 0 {
				continue
			}
			if need := n - s.cl.Free(p); need > 0 {
				if err := s.interruptVictims(p, need, t, touched); err != nil {
					return err
				}
			}
			if err := s.cl.Drain(t, p, n); err != nil {
				return err
			}
			s.met.CapacityFaults++
			touched[p] = true
			if s.obsv != nil {
				s.obsv.Observe(obs.Event{
					Kind: obs.FaultNodeDown, Time: t, Job: -1,
					Part: p, Procs: n, Detail: ev.Pair,
				})
			}
		} else {
			n := f.drained[ev.ID]
			if n == 0 {
				continue
			}
			f.drained[ev.ID] = 0
			if err := s.cl.Restore(t, p, n); err != nil {
				return err
			}
			s.met.CapacityFaults++
			touched[p] = true
			if s.obsv != nil {
				s.obsv.Observe(obs.Event{
					Kind: obs.FaultNodeUp, Time: t, Job: -1,
					Part: p, Procs: n, Detail: ev.Pair,
				})
			}
		}
	}
	return nil
}

// interruptVictims interrupts running jobs in partition p until at least
// need cores are free, ahead of a capacity drain. Victim order is
// deterministic and oracle-mirrored: most recently started first (least
// sunk work lost), higher job index first on ties.
func (s *simulator) interruptVictims(p, need int, t float64, touched []bool) error {
	f := s.flt
	vic := f.victims[:0]
	for _, r := range s.compl.items {
		if int(r.part) == p {
			vic = append(vic, r)
		}
	}
	slices.SortFunc(vic, func(a, b running) int {
		sa, sb := f.lastStart[a.idx], f.lastStart[b.idx]
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		default:
			return int(b.idx) - int(a.idx)
		}
	})
	freed, k := 0, 0
	for k < len(vic) && freed < need {
		freed += int(vic[k].procs)
		k++
	}
	vic = vic[:k]
	f.victims = vic
	if k == 0 {
		return nil
	}
	// Remove the victims from the completion heap, then restore the heap
	// invariant canonically: ascending (real, idx) — a sorted array always
	// satisfies the heap property, and the canonical arrangement keeps
	// completion tie order deterministic for the event stream.
	kept := s.compl.items[:0]
	for _, r := range s.compl.items {
		victim := false
		for i := range vic {
			if vic[i].idx == r.idx {
				victim = true
				break
			}
		}
		if !victim {
			kept = append(kept, r)
		}
	}
	s.compl.items = kept
	slices.SortFunc(kept, func(a, b running) int {
		switch {
		case a.real < b.real:
			return -1
		case a.real > b.real:
			return 1
		default:
			return int(a.idx) - int(b.idx)
		}
	})
	for i := range vic {
		r := &vic[i]
		part, procs := int(r.part), int(r.procs)
		if err := s.cl.Release(t, part, procs); err != nil {
			return err
		}
		s.parts[part].avail.Remove(r.end, procs)
		s.parts[part].shadowSeedOK = false
		if t > s.makespan {
			s.makespan = t
		}
		touched[part] = true
		f.willInterrupt[r.idx] = false // the outage ends the attempt, not the drawn cut
		s.faultInterrupted(r, t, touched)
	}
	return nil
}

// faultInterrupted handles the end of an interrupted attempt: classify its
// occupancy as wasted/goodput, then requeue the job or fail it terminally.
// The caller has already released the attempt's cores and retired its
// completion-heap entry.
func (s *simulator) faultInterrupted(r *running, t float64, touched []bool) {
	f := s.flt
	j := &s.slots[r.slot]
	part, procs := int(r.part), int(r.procs)
	elapsed := t - f.lastStart[r.idx]
	pf := float64(procs)
	f.interrupts++
	s.met.Interrupts++
	if s.obsv != nil {
		s.obsv.Observe(obs.Event{
			Kind: obs.FaultJobInterrupt, Time: t, Job: s.job(int(r.idx)).ID,
			Part: part, Procs: procs, Detail: elapsed,
		})
	}
	if !f.canRetry(r.idx) {
		f.wasted += elapsed * pf
		if c := f.credit[r.idx]; c > 0 {
			// The banked checkpoint work dies with the job: reclassify it
			// so goodput only ever counts work that reached a completion
			// or survives in a resumable checkpoint.
			f.goodput -= c * pf
			f.wasted += c * pf
		}
		f.dead[r.idx] = true
		f.failed++
		s.met.FaultFailed++
		s.freeSlot(r.slot)
		return
	}
	f.attempts[r.idx]++
	if f.cfg.Recovery == fault.RecoveryCheckpoint {
		banked := math.Floor(elapsed/f.ckpt) * f.ckpt
		if banked > elapsed {
			banked = elapsed
		}
		f.goodput += banked * pf
		f.wasted += (elapsed - banked) * pf
		f.credit[r.idx] += banked
		j.run -= banked // the next attempt resumes from the last checkpoint
	} else {
		f.wasted += elapsed * pf // restart from zero
	}
	f.requeues++
	s.met.Requeues++
	// Re-enter the waiting queue exactly like a fresh arrival: ordered
	// position under static policies, re-sort marker under dynamic ones.
	// The scan stamp is cleared — a stale stamp could match a live scan
	// generation and skip the job forever. The job keeps its original
	// submit time (queue priority) and its first promise, and keeps its
	// arena slot (freed only at completion or terminal failure).
	j.scanStamp = 0
	s.enqueue(part, r.slot)
	s.queued++
	touched[part] = true
	if s.obsv != nil {
		s.obsv.Observe(obs.Event{
			Kind: obs.FaultJobRequeue, Time: t, Job: s.job(int(r.idx)).ID,
			Part: part, Procs: procs, Detail: j.run,
		})
	}
}
