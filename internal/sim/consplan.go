package sim

import (
	"math"
	"slices"
)

// consPlan is one partition's persistent conservative-backfilling
// reservation plan. Conservative backfilling gives every queued job a
// reservation, planned in priority order on the availability profile with
// every earlier reservation subtracted; the scheduler's only OBSERVABLE
// output from that plan is which jobs start at the current instant (plan
// entries are never emitted, and only the blocked head's promise is
// recorded — computed separately in schedule). The previous implementation
// rebuilt the whole plan from scratch at every event; consPlan keeps the
// plan — and the reserved profile it was planned on — alive across events
// and replans only the jobs whose reservation window was actually touched.
//
// Invariant (between passes, while valid): starts[:planLen] are exactly the
// first planLen starts a from-scratch conservative pass at the last
// planning instant would produce for the current queue prefix, and rprof
// equals the current availability profile minus the reservations
// [starts[k], starts[k]+reqTime_k) x procs_k of those entries — up to the
// capacity holes recorded in holes, which are folded in lazily at the next
// pass. planLen may be shorter than the queue (lazy suffix): the planning
// loop early-stops once no remaining job could possibly start now, which
// cannot change any observable start.
//
// The plan survives an event when the event provably did not move any
// kept entry:
//
//   - Arrivals insert at a queue position; positions >= planLen leave the
//     prefix untouched, positions below it truncate the plan there
//     (insertSorted hook).
//   - Completions at exactly the planned end change nothing: the
//     availability profile is a function of the planned-end multiset, and
//     folding an end at now into the base is the same step function.
//   - Completions EARLIER than planned open a capacity hole [now, end):
//     the cores come back now instead of at the planned end. Each kept
//     entry k is re-checked with a sound reject test — it can only move
//     earlier if some candidate start in [now, min(holeMax, start_k))
//     admits its procs on its prefix-reserved profile, which is bounded
//     pointwise by the bare availability profile; if even the maximum
//     bare-profile free over that interval is below procs_k, the entry
//     provably cannot move. The plan is truncated at the FIRST entry that
//     fails the test and replanned sequentially from there, which is
//     exactly the from-scratch result (entries before the truncation
//     cannot move earlier by the test, and cannot move later because
//     capacity was only added).
//   - An entry whose planned start slipped into the past without starting
//     (a pass skipped by schedule's fitBound fast reject, or a start
//     blocked by cores still held past their planned end) is stale: a
//     from-scratch plan would recompute it at >= now. The repair scan
//     truncates at the first stale entry.
//
// Persistence is bypassed — every pass plans from scratch, still with the
// early stop and the searchless reserve — whenever queue order is not
// static (dynamic policies, CustomScore) or fault injection is active
// (requeues, drains, and victim interrupts mutate queue and capacity at
// too many sites to track holes soundly); those passes leave valid false,
// which is trivially exact.
type consPlan struct {
	valid   bool
	dirty   bool // rprof does not reflect starts[:planLen]; rebuild before use
	planLen int
	starts  []float64 // planned start per live queue position, [0:planLen)
	rprof   profile   // availability profile minus the prefix reservations
	holes   []JobEnd  // early completions since the last pass: +Procs over [now, End)
	holeMax float64   // max End over holes; -Inf when none
	// scratch (retained across passes and runs)
	bounds []resBound // reservation boundaries for batched rebuilds
	sufMin []int32    // suffix minima of queued core requests
	pmax   []int      // prefix maxima of bare-profile free counts
}

// resBound is one reservation edge for the batched rprof rebuild: the free
// count changes by d at time t.
type resBound struct {
	t float64
	d int32
}

// reset clears the plan for simulator reuse, keeping scratch capacity.
func (cp *consPlan) reset() {
	cp.setInvalid()
}

// setInvalid drops the plan entirely; the next pass rebuilds from scratch.
func (cp *consPlan) setInvalid() {
	cp.valid = false
	cp.dirty = true
	cp.planLen = 0
	cp.holes = cp.holes[:0]
	cp.holeMax = math.Inf(-1)
}

// truncate drops plan entries at positions >= pos (a queue insertion
// shifted them). rprof is rebuilt lazily at the next pass.
func (cp *consPlan) truncate(pos int) {
	if cp.valid && pos < cp.planLen {
		cp.planLen = pos
		cp.dirty = true
	}
}

// headStarted records a dispatch that bypassed the plan (schedule's direct
// head start): the capacity it consumed is not a plan reservation, so
// rprof is stale even when the plan is empty — drop every entry and force
// a rebuild. Unlike truncate(0), this must fire at planLen == 0 too.
func (cp *consPlan) headStarted() {
	if cp.valid {
		cp.planLen = 0
		cp.dirty = true
	}
}

// noteHole records capacity returning early: procs cores planned to come
// back at end are free from the current instant on. Only called while the
// plan is valid (the completion hook checks), so holes never accumulate
// for plans that will be rebuilt anyway.
func (cp *consPlan) noteHole(end float64, procs int) {
	cp.holes = append(cp.holes, JobEnd{End: end, Procs: procs})
	if end > cp.holeMax {
		cp.holeMax = end
	}
}

// repairTruncation returns the length of the plan prefix that provably
// matches a from-scratch replan at now: entries before the first stale
// entry (planned start in the past) that also pass the hole reject test.
// prof is the partition's current bare availability profile.
func (cp *consPlan) repairTruncation(now float64, prof *profile, q *jobQueue) int {
	planLen := cp.planLen
	hm := cp.holeMax
	var pm []int
	if hm > now {
		// Prefix maxima of prof's free counts over the segments below the
		// hole horizon; segments at or past holeMax can never justify a
		// move, so the scan is capped there.
		n := searchF64(prof.times, hm)
		pm = cp.pmax[:0]
		best := math.MinInt
		for i := 0; i < n; i++ {
			if prof.free[i] > best {
				best = prof.free[i]
			}
			pm = append(pm, best)
		}
		cp.pmax = pm
	}
	_, procsArr := q.liveMirrors()
	for k := 0; k < planLen; k++ {
		st := cp.starts[k]
		if st < now {
			return k // stale: its planned moment passed without a start
		}
		if pm != nil && st > now {
			b := hm
			if st < b {
				b = st
			}
			// Max bare-profile free over [now, b): segments with times < b.
			// b > now = prof.times[0], so i >= 1 always.
			i := searchF64(prof.times, b)
			if i > len(pm) {
				i = len(pm)
			}
			if pm[i-1] >= int(procsArr[k]) {
				return k // the hole may admit an earlier start: replan from here
			}
		}
	}
	return planLen
}

// rebuildReserved recomputes rprof = prof minus the reservations of
// starts[:planLen] in one merge sweep: the 2*planLen reservation edges are
// sorted and folded against prof's breakpoints, so a truncation costs
// O(B + planLen log planLen) instead of planLen full reserve() calls.
// Rebuilding from the fresh prof also folds in any pending holes and
// compacts breakpoints left behind by earlier hole applications.
func (cp *consPlan) rebuildReserved(prof *profile, q *jobQueue, slots []pending) {
	m := cp.planLen
	r := &cp.rprof
	if m == 0 {
		r.times = append(r.times[:0], prof.times...)
		r.free = append(r.free[:0], prof.free...)
		return
	}
	b := cp.bounds[:0]
	for k := 0; k < m; k++ {
		c := &slots[q.at(k)]
		st := cp.starts[k]
		b = append(b,
			resBound{t: st, d: int32(-c.procs)},
			resBound{t: reservationEnd(st, c.reqTime), d: int32(c.procs)})
	}
	// Equal-time edges merge by summing deltas below, so the sort order
	// among them cannot affect the result (no stability needed).
	slices.SortFunc(b, func(x, y resBound) int {
		switch {
		case x.t < y.t:
			return -1
		case x.t > y.t:
			return 1
		default:
			return 0
		}
	})
	cp.bounds = b
	times := r.times[:0]
	free := r.free[:0]
	pi, bi := 0, 0
	pn := len(prof.times)
	base, adj := 0, 0
	for pi < pn || bi < len(b) {
		var t float64
		if bi >= len(b) || (pi < pn && prof.times[pi] <= b[bi].t) {
			t = prof.times[pi]
		} else {
			t = b[bi].t
		}
		for pi < pn && prof.times[pi] == t {
			base = prof.free[pi]
			pi++
		}
		for bi < len(b) && b[bi].t == t {
			adj += int(b[bi].d)
			bi++
		}
		times = append(times, t)
		free = append(free, base+adj)
	}
	r.times = times
	r.free = free
}

// applyHoles folds the pending capacity holes into rprof: each hole adds
// its cores back over [now, End). The base has already advanced to now.
func (cp *consPlan) applyHoles(now float64) {
	for _, h := range cp.holes {
		if h.End > now {
			cp.rprof.add(now, h.End, h.Procs)
		}
	}
	cp.holes = cp.holes[:0]
	cp.holeMax = math.Inf(-1)
}

// setStart records the planned start for queue position pos (== planLen).
func (cp *consPlan) setStart(pos int, st float64) {
	if pos < len(cp.starts) {
		cp.starts[pos] = st
	} else {
		cp.starts = append(cp.starts, st)
	}
}

// removeStart drops the started entry at queue position i, shifting the
// kept entries above it down one position (mirroring the queue removal).
func (cp *consPlan) removeStart(i int) {
	copy(cp.starts[i:cp.planLen-1], cp.starts[i+1:cp.planLen])
	cp.planLen--
}

// conservativePass runs one conservative-backfilling pass for partition p:
// repair the persistent plan against the events since the last pass, plan
// reservations for the unplanned queue suffix (early-stopping once no
// remaining job could start now), and start every job whose planned start
// is the current instant. prof is the partition's current bare
// availability profile (from buildProfile); it is read, never mutated, so
// the caller's profile and shadow caches stay valid across passes.
func (s *simulator) conservativePass(p int, prof *profile) {
	ps := &s.parts[p]
	cp := &ps.plan
	now := s.now
	// During a capacity fault, queued jobs larger than the effective
	// capacity cannot be planned at all (no profile segment ever reaches
	// their request; reserving anyway would drive the profile negative) —
	// they are skipped until the outage ends. The head is never skipped:
	// schedule() degrades to a greedy pass before planning when the head
	// itself no longer fits.
	effCap := math.MaxInt
	if s.flt != nil {
		effCap = s.cl.Capacity(p) - s.cl.DownCores(p)
	}
	persist := s.flt == nil && s.staticOrder()
	n := ps.q.len()
	s.met.ConsPasses++

	if !persist || !cp.valid || cp.planLen > n {
		cp.setInvalid()
	} else if cp.planLen > 0 {
		if r := cp.repairTruncation(now, prof, &ps.q); r < cp.planLen {
			cp.planLen = r
			cp.dirty = true
		}
	}
	if cp.dirty {
		cp.rebuildReserved(prof, &ps.q, s.slots)
		cp.dirty = false
		cp.holes = cp.holes[:0]
		cp.holeMax = math.Inf(-1)
	} else {
		cp.rprof.advanceTo(now)
		if len(cp.holes) > 0 {
			cp.applyHoles(now)
		}
		// Hole applications can leave redundant breakpoints behind; when
		// they pile up, fall back to a compacting rebuild (the step
		// function is unchanged, so planning results are too).
		if len(cp.rprof.times) > 2*(len(prof.times)+2*cp.planLen)+8 {
			cp.rebuildReserved(prof, &ps.q, s.slots)
		}
	}
	kept := cp.planLen
	s.met.ConsKeptJobs += int64(kept)

	// Plan the unplanned suffix in queue order on the reserved profile.
	// Early stop: reservations only ever subtract from the profile, so the
	// free count at now is non-increasing across the remaining positions;
	// once it is below the minimum core request of every remaining job, no
	// remaining job can be planned at now, and planning them cannot change
	// which jobs start — the plan stays lazily short instead.
	if cp.planLen < n {
		_, procsArr := ps.q.liveMirrors()
		sm := cp.sufMin
		if cap(sm) < n {
			sm = make([]int32, n)
		} else {
			sm = sm[:n]
		}
		min := int32(math.MaxInt32)
		for i := n - 1; i >= cp.planLen; i-- {
			if procsArr[i] < min {
				min = procsArr[i]
			}
			sm[i] = min
		}
		cp.sufMin = sm
		rp := &cp.rprof
		for pos := cp.planLen; pos < n; pos++ {
			if rp.free[0] < int(sm[pos]) {
				break
			}
			c := &s.slots[ps.q.at(pos)]
			if c.procs > effCap {
				// Unplannable during the outage; the sentinel keeps starts
				// positionally aligned (never startable, never persisted:
				// persist is false whenever faults are active).
				cp.setStart(pos, math.Inf(1))
				cp.planLen = pos + 1
				continue
			}
			st, _, idx := rp.earliestStart(now, c.procs, c.reqTime)
			rp.reserveFrom(idx, st, c.reqTime, c.procs)
			cp.setStart(pos, st)
			cp.planLen = pos + 1
			s.met.ConsPlannedJobs++
		}
	}

	if consPlanAudit != nil {
		s.emitConsPlanAudit(p, prof, persist, kept)
	}

	// Start immediately-startable jobs; iterate descending position so
	// earlier removals don't shift lower indices, and compact the plan in
	// step with the queue. A start in the epsilon window (planned a hair
	// after now), or of a reservation stretched over that window (see
	// reservationEnd), leaves its reservation misaligned with its real
	// occupancy, so the plan cannot be carried forward.
	eps := false
	for i := cp.planLen - 1; i >= 0; i-- {
		st := cp.starts[i]
		c := &s.slots[ps.q.at(i)]
		if st <= now+startWindow && s.cl.CanAllocate(p, c.procs) {
			if st != now || reservationEnd(st, c.reqTime) != st+c.reqTime {
				eps = true
			}
			s.start(p, i)
			cp.removeStart(i)
		}
	}
	if persist && !eps {
		cp.valid = true
	} else {
		cp.setInvalid()
	}
}

// consPlanAudit, when non-nil, receives a snapshot of every conservative
// planning decision before its starts are applied. Test-only (set via
// SetConsPlanAudit); the hot path pays one nil check per pass.
var consPlanAudit func(ConsPlanAudit)

// ConsPlanAudit is the verification view of one conservative planning
// pass, captured after plan repair and extension and before any job is
// started. internal/check replans the same queue from scratch on its own
// naive availability model and asserts the maintained plan is the exact
// prefix of the from-scratch plan — the conservative analogue of the
// AvailSet Snapshot/ReferenceSnapshot property test.
type ConsPlanAudit struct {
	Part int
	Now  float64
	// BaseTimes/BaseFree snapshot the bare availability profile the pass
	// planned against (before reservations).
	BaseTimes []float64
	BaseFree  []int
	// Procs/ReqTime describe the waiting queue in priority order.
	Procs   []int
	ReqTime []float64
	// Starts is the maintained plan: one planned start per queue position
	// for the planned prefix (possibly shorter than the queue — the
	// planning loop early-stops once no remaining job could start now).
	Starts []float64
	// Kept is how many plan entries survived from the previous pass
	// (before this pass extended the plan).
	Kept int
	// Persistent reports whether the incremental path was active (static
	// queue order, no fault injection).
	Persistent bool
}

// SetConsPlanAudit installs (or, with nil, removes) the global
// conservative-plan audit hook. For tests only: the hook is process-global
// and must not be raced with concurrent simulations.
func SetConsPlanAudit(fn func(ConsPlanAudit)) { consPlanAudit = fn }

// emitConsPlanAudit builds the (allocating) audit snapshot; only reached
// when a hook is installed.
func (s *simulator) emitConsPlanAudit(p int, prof *profile, persist bool, kept int) {
	ps := &s.parts[p]
	cp := &ps.plan
	n := ps.q.len()
	a := ConsPlanAudit{
		Part:       p,
		Now:        s.now,
		BaseTimes:  append([]float64(nil), prof.times...),
		BaseFree:   append([]int(nil), prof.free...),
		Procs:      make([]int, n),
		ReqTime:    make([]float64, n),
		Starts:     append([]float64(nil), cp.starts[:cp.planLen]...),
		Kept:       kept,
		Persistent: persist,
	}
	for i := 0; i < n; i++ {
		c := &s.slots[ps.q.at(i)]
		a.Procs[i] = c.procs
		a.ReqTime[i] = c.reqTime
	}
	consPlanAudit(a)
}
