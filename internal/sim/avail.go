package sim

import "math"

// JobEnd is one running job's planned completion: the time its cores come
// back at the scheduler's planning horizon (start + walltime estimate) and
// how many cores it holds.
type JobEnd struct {
	End   float64
	Procs int
}

// AvailSet incrementally maintains the multiset of planned ends of a
// partition's running jobs. It replaces the per-pass "collect the runset
// into a slice, sort it, fold it into a step function" reconstruction the
// simulator used to perform at every blocked-head scheduling pass: Add on
// dispatch and Remove on release keep the set sorted at all times, so the
// blocked head's earliest start is one early-exit scan (shadow), and
// materializing the availability profile — which only conservative
// backfilling's reservations need — is a single allocation-free linear
// fold (buildInto).
//
// Entries are aggregated by end time — one entry per distinct End with the
// core counts summed — which is exactly the information the merged step
// function depends on: the profile newProfile builds from the raw runset is
// a function only of this multiset, not of the order jobs were visited in.
// That makes the incremental profile bit-identical to a from-scratch
// rebuild, an invariant internal/check pins with a property test against
// both Snapshot/ReferenceSnapshot and its own naive availability model.
//
// The type is exported (with a read-only verification surface) so that
// internal/check can drive it directly; the simulator itself embeds one
// AvailSet per partition.
// The set is stored as parallel arrays rather than []JobEnd: the binary
// search on the dispatch/release path probes only end times, and the dense
// float64 array halves the cache lines each probe touches.
//
// The live entries are ends[head:] (and procs[head:]); the prefix before
// head is dead space left by removals. Dispatches trend toward the latest
// end and completions toward the earliest — on traces without walltimes,
// where the planned end is the actual end, every completion is the front
// entry — so both ends of the span must be cheap: Remove shifts whichever
// side of the removed entry is shorter (a front removal is head++), and Add
// inserts through the shorter side, using the dead prefix when there is
// one. When an append reaches the backing array's capacity with dead space
// in front, the live span slides down in place; the arrays grow only when
// the live span fills them, exactly when a plain slice would, so forks and
// reused runs keep their allocation pattern.
type AvailSet struct {
	ends  []float64 // ends[head:] ascending; one entry per distinct end time
	procs []int     // cores held at ends[i], summed over aggregated jobs
	head  int       // first live entry
	ver   uint64    // bumped on every mutation; keys the simulator's profile cache
}

// Len returns the number of distinct planned end times in the set.
func (a *AvailSet) Len() int { return len(a.ends) - a.head }

// reset empties the set (keeping storage) for simulator reuse.
func (a *AvailSet) reset() {
	a.ends = a.ends[:0]
	a.procs = a.procs[:0]
	a.head = 0
	a.ver++
}

// search returns the position of end among the live entries, or the
// insertion point when absent. Hand-rolled sort.Search: the closure call per
// probe is measurable on the simulator's dispatch/release path.
func (a *AvailSet) search(end float64) int {
	lo, hi := a.head, len(a.ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.ends[mid] < end {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// slideDown moves the live span to the start of the backing arrays.
func (a *AvailSet) slideDown() {
	n := copy(a.ends, a.ends[a.head:])
	copy(a.procs, a.procs[a.head:])
	a.ends, a.procs, a.head = a.ends[:n], a.procs[:n], 0
}

// Add records a started job's planned end: O(log n) search plus a shift of
// the shorter side of the insertion point (none for a new latest end, the
// common case); n counts distinct end times among running jobs, not
// running jobs.
func (a *AvailSet) Add(end float64, procs int) {
	a.ver++
	n := len(a.ends)
	if n == a.head || end > a.ends[n-1] {
		// Dispatches trend toward the planning horizon, so the new end is
		// very often the latest; append without searching when it is.
		if n == cap(a.ends) && a.head > 0 {
			a.slideDown()
		}
		a.ends = append(a.ends, end)
		a.procs = append(a.procs, procs)
		return
	}
	i := a.search(end)
	if a.ends[i] == end { // i < n: end <= the latest live end
		a.procs[i] += procs
		return
	}
	if h := a.head; h > 0 && i-h < n-i {
		// Shift the entries before i down into the dead prefix.
		copy(a.ends[h-1:i-1], a.ends[h:i])
		copy(a.procs[h-1:i-1], a.procs[h:i])
		a.head--
		a.ends[i-1], a.procs[i-1] = end, procs
		return
	}
	if n == cap(a.ends) && a.head > 0 {
		a.slideDown()
		i -= n - len(a.ends)
	}
	a.ends = append(a.ends, 0)
	copy(a.ends[i+1:], a.ends[i:])
	a.ends[i] = end
	a.procs = append(a.procs, 0)
	copy(a.procs[i+1:], a.procs[i:])
	a.procs[i] = procs
}

// Remove retracts a previously-added planned end (on job release). The
// (end, procs) pair must have been Added before; the simulator guarantees
// this by storing the exact planned end on the running record, so the float
// equality match is exact by construction. A retracted entry costs a shift
// of the shorter side of it: nothing at the front.
func (a *AvailSet) Remove(end float64, procs int) {
	a.ver++
	h, n := a.head, len(a.ends)
	// Completions trend toward the earliest planned end; check the front
	// before searching.
	i := h
	if h == n || a.ends[h] != end {
		i = a.search(end)
	}
	if i >= n || a.ends[i] != end || a.procs[i] < procs {
		panic("sim: AvailSet.Remove of an end that was never added")
	}
	a.procs[i] -= procs
	if a.procs[i] != 0 {
		return
	}
	switch {
	case n-h == 1:
		// Emptied: restart at the front of the arrays.
		a.ends, a.procs, a.head = a.ends[:0], a.procs[:0], 0
	case i-h < n-1-i:
		copy(a.ends[h+1:i+1], a.ends[h:i])
		copy(a.procs[h+1:i+1], a.procs[h:i])
		a.head++
	default:
		a.ends = append(a.ends[:i], a.ends[i+1:]...)
		a.procs = append(a.procs[:i], a.procs[i+1:]...)
	}
}

// buildInto materializes the availability step function at time now into the
// caller's scratch profile, reusing its slices. freeNow is the partition's
// currently free core count. Planned ends at or before now (jobs running
// past their estimate, e.g. under advisory walltime predictions) fold into
// the base entry, mirroring newProfile's clamping. It returns the first
// planned end strictly after now (+Inf when none): the build stays valid
// until the clock reaches it, which is what the simulator's profile cache
// keys on.
func (a *AvailSet) buildInto(p *profile, now float64, freeNow int) (nextEnd float64) {
	cur := freeNow
	i := a.head
	for ; i < len(a.ends) && a.ends[i] <= now; i++ {
		cur += a.procs[i]
	}
	// The output length is known up front, so the fold writes by index into
	// pre-sized slices instead of paying append's capacity check per entry —
	// this runs on every blocked-head scheduling pass.
	tail, tailProcs := a.ends[i:], a.procs[i:]
	m := len(tail) + 1
	if cap(p.times) < m {
		// Grow with headroom so repeated builds amortize like append did.
		p.times = make([]float64, m, m+m/2)
		p.free = make([]int, m, m+m/2)
	} else {
		p.times = p.times[:m]
		p.free = p.free[:m]
	}
	p.times[0] = now
	p.free[0] = cur
	nextEnd = math.Inf(1)
	if len(tail) > 0 {
		nextEnd = tail[0]
	}
	for k, e := range tail {
		cur += tailProcs[k]
		p.times[k+1] = e
		p.free[k+1] = cur
	}
	return nextEnd
}

// shadow is profile.earliestStart on the step function buildInto would
// materialize at now, computed by one early-exit scan of the set instead of
// a build and a walk. Without reservations that step function never
// decreases: its free count starts at freeNow plus the cores of ends at or
// before now and gains each later end's cores. So once a segment holds
// procs cores every later one does too, and the earliest start is the
// first candidate — from itself, then each planned end after it — whose
// segment reaches procs, whatever the requested duration; minFree is that
// segment's free count. When none does, the answer is earliestStart's
// fallback: the last breakpoint (the latest end, or now without one) or
// from, whichever is later, with the final free count. It also returns the
// scan's cache key parts: nextEnd, the first planned end strictly after now
// (+Inf when none), and baseFree, the free count at now.
func (a *AvailSet) shadow(now float64, freeNow int, from float64, procs int) (start float64, minFree int, nextEnd float64, baseFree int) {
	ends, ps := a.ends, a.procs
	cur := freeNow
	i := a.head
	for ; i < len(ends) && ends[i] <= now; i++ {
		cur += ps[i]
	}
	baseFree, nextEnd = cur, math.Inf(1)
	if i < len(ends) {
		nextEnd = ends[i]
	}
	// The segment containing from holds every end at or before it.
	for ; i < len(ends) && ends[i] <= from; i++ {
		cur += ps[i]
	}
	if cur >= procs {
		return from, cur, nextEnd, baseFree
	}
	for ; i < len(ends); i++ {
		cur += ps[i]
		if cur >= procs {
			return ends[i], cur, nextEnd, baseFree
		}
	}
	last := now
	if n := len(ends); n > a.head && ends[n-1] > now {
		last = ends[n-1]
	}
	if last < from {
		last = from
	}
	return last, cur, nextEnd, baseFree
}

// Shadow returns the earliest time >= from at which procs cores are free
// and the free count there, on the availability profile the set produces
// at now with freeNow cores currently free. It is the verification view of
// the simulator's blocked-head scan: internal/check asserts it equals
// NewPlanner(now, freeNow).EarliestStart(from, procs, dur) for any dur.
func (a *AvailSet) Shadow(now float64, freeNow int, from float64, procs int) (start float64, minFree int) {
	start, minFree, _, _ = a.shadow(now, freeNow, from, procs)
	return start, minFree
}

// Snapshot returns the availability profile (breakpoints and free counts)
// the set produces at time now with freeNow cores currently free. It is the
// verification view of buildInto: internal/check asserts it equals
// ReferenceSnapshot after every randomized Add/Remove sequence.
func (a *AvailSet) Snapshot(now float64, freeNow int) (times []float64, free []int) {
	var p profile
	a.buildInto(&p, now, freeNow)
	return p.times, p.free
}

// ReferenceSnapshot builds the same availability profile from scratch with
// newProfile — the non-incremental reconstruction the simulator used before
// the incremental hot path, kept as the reference the AvailSet invariant is
// checked against. The ends may be in any order and may repeat end times.
func ReferenceSnapshot(now float64, freeNow int, ends []JobEnd) (times []float64, free []int) {
	p := newProfile(now, freeNow, ends)
	return p.times, p.free
}

// Planner is an availability profile with reservation planning on top — the
// same machinery the simulator's backfill planners run on the hot path
// (earliest-start queries and conservative reservations), exported so
// internal/check can differentially test it against its naive reference
// model.
type Planner struct {
	prof profile
}

// NewPlanner materializes the set into a fresh standalone planner at now.
func (a *AvailSet) NewPlanner(now float64, freeNow int) *Planner {
	pl := &Planner{}
	a.buildInto(&pl.prof, now, freeNow)
	return pl
}

// FreeAt evaluates the planner's step function at time t (t >= now).
func (pl *Planner) FreeAt(t float64) int { return pl.prof.freeAt(t) }

// EarliestStart returns the first time >= from at which procs cores stay
// free for dur seconds, plus the minimum free count over that window.
func (pl *Planner) EarliestStart(from float64, procs int, dur float64) (start float64, minFree int) {
	start, minFree, _ = pl.prof.earliestStart(from, procs, dur)
	return start, minFree
}

// Window reports whether procs cores stay free throughout [t, t+dur); see
// profile.window for the minFree contract on the failure path.
func (pl *Planner) Window(t, dur float64, procs int) (bool, int) {
	return pl.prof.window(t, dur, procs)
}

// Reserve subtracts procs cores over [t, t+dur), as conservative
// backfilling does while planning queue-wide reservations.
func (pl *Planner) Reserve(t, dur float64, procs int) { pl.prof.reserve(t, dur, procs) }
