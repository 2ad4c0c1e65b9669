package sim

import (
	"math"
	"sort"
)

// profile is a step function of free cores over future time, used to plan
// reservations. It starts from the current free count and regains cores as
// running jobs reach their expected ends; conservative backfilling also
// subtracts planned reservations from it.
//
// Only conservative backfilling builds profiles on the hot path (the other
// kinds scan the AvailSet for the head's shadow), and not with newProfile:
// each partition's AvailSet materializes into a per-partition scratch
// profile (AvailSet.buildInto), so steady-state scheduling passes reuse the
// same two slices and allocate nothing. newProfile remains as the
// from-scratch reference construction for tests and verification.
type profile struct {
	times []float64 // breakpoints, ascending; times[0] == now
	free  []int     // free cores during [times[i], times[i+1]); last entry extends to +Inf
}

// newProfile builds the availability profile at time now for a partition
// with the given current free count and the (end, procs) pairs of running
// jobs. Ends before now contribute immediately (defensive: a job at its
// exact end event is already released by the caller).
func newProfile(now float64, freeNow int, ends []JobEnd) *profile {
	p := &profile{times: []float64{now}, free: []int{freeNow}}
	if len(ends) == 0 {
		return p
	}
	sorted := append([]JobEnd(nil), ends...)
	// Stable keeps the caller's (deterministic) order among equal ends.
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].End < sorted[b].End })
	cur := freeNow
	for _, e := range sorted {
		t := e.End
		if t < now {
			t = now
		}
		cur += e.Procs
		last := len(p.times) - 1
		if t == p.times[last] {
			p.free[last] = cur
		} else {
			p.times = append(p.times, t)
			p.free = append(p.free, cur)
		}
	}
	return p
}

// searchF64 is sort.SearchFloat64s without the sort.Search closure: the
// smallest i with a[i] >= x. The profile queries below binary-search on
// every planning step, where the monomorphic loop both inlines and avoids
// the per-probe indirect call.
func searchF64(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// freeAt returns the free cores at time t (t >= times[0]).
func (p *profile) freeAt(t float64) int {
	i := searchF64(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return p.free[i]
	}
	if i == 0 {
		return p.free[0]
	}
	return p.free[i-1]
}

// earliestStart returns the earliest time >= from at which procs cores stay
// free for dur seconds, plus the minimum free count over that window (used
// to compute the "extra" cores available alongside a reservation) and the
// index of the profile segment containing the start, which reserveFrom
// uses to skip the binary searches a plain reserve() would repeat.
//
// Candidate starts are `from` and every breakpoint after it, in order —
// the same candidate sequence a naive scan tries — but candidates that are
// provably infeasible are skipped: when the window starting at c fails at
// segment j (free[j] < procs), every candidate c' in (c, times[j]] also
// covers segment j (times[j]-c' < times[j]-c < dur), so the search resumes
// at breakpoint j+1. The first feasible candidate — and therefore the
// result — is identical to the naive scan's; only the failures in between
// are skipped, making the search linear instead of quadratic in the number
// of breakpoints.
func (p *profile) earliestStart(from float64, procs int, dur float64) (start float64, minFree, idx int) {
	times, free := p.times, p.free
	n := len(times)
	// Locate the segment containing from once; every later candidate is a
	// breakpoint whose index the sweep already knows, so the per-candidate
	// binary search a window()-based loop would pay is gone. Queries almost
	// always come in at the profile's base time, so the search itself is
	// skipped when from lands at or before the first breakpoint.
	i := 0
	if n > 0 && from > times[0] {
		i = searchF64(times, from)
		if i >= n || times[i] != from {
			if i > 0 {
				i--
			}
		}
	}
	cand, candIdx := from, i
	for {
		end := cand + dur
		j := candIdx
		ok := true
		mf := math.MaxInt64
		// The segment containing cand is always examined, even when the
		// window is empty (dur == 0): a zero-duration request still needs
		// procs cores free at its start instant (start() allocates them),
		// and skipping the check would make the answer depend on whether
		// cand happens to coincide with a stored breakpoint — the step
		// function, not its representation, must decide.
		for ; j < n; j++ {
			if j > candIdx && times[j] >= end {
				break
			}
			if free[j] < procs {
				ok = false
				break
			}
			if free[j] < mf {
				mf = free[j]
			}
		}
		if ok {
			return cand, mf, candIdx
		}
		// Resume after the failing segment; times are strictly ascending so
		// times[j+1] > cand always holds (the failing segment either
		// contains cand or lies beyond it).
		if j+1 >= n {
			// After the last breakpoint everything running has ended.
			last := times[n-1]
			if last < from {
				last = from
			}
			return last, free[n-1], n - 1
		}
		cand, candIdx = times[j+1], j+1
	}
}

// reserveFrom is reserve with a position hint: idx is the index of the
// segment containing t (times[idx] <= t), as returned by earliestStart.
// The split points are then found by the same forward walk the subtraction
// performs anyway, so the three binary searches of reserve() disappear —
// they dominated the flat profile of conservative planning. The resulting
// step function is identical to reserve()'s.
func (p *profile) reserveFrom(idx int, t, dur float64, procs int) {
	end := reservationEnd(t, dur)
	i := idx
	if t > p.times[i] {
		p.insertAt(i+1, t, p.free[i])
		i++
	}
	j := i
	for j < len(p.times) && p.times[j] < end {
		j++
	}
	if j == len(p.times) || p.times[j] != end {
		p.insertAt(j, end, p.free[j-1])
	}
	for k := i; k < j; k++ {
		p.free[k] -= procs
	}
}

// insertAt inserts breakpoint (t, v) at position i, shifting the tail.
func (p *profile) insertAt(i int, t float64, v int) {
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.free[i+1:], p.free[i:])
	p.times[i] = t
	p.free[i] = v
}

// advanceTo moves the profile's base breakpoint forward to now, dropping
// breakpoints the clock has passed (the active segment's value carries
// over). Queries never look before the base, so the step function on
// [now, +Inf) — the only observable part — is unchanged.
func (p *profile) advanceTo(now float64) {
	i := searchF64(p.times, now)
	if i >= len(p.times) || p.times[i] != now {
		i-- // now falls inside the segment starting at times[i]
	}
	if i <= 0 {
		p.times[0] = now
		return
	}
	n := copy(p.times, p.times[i:])
	copy(p.free, p.free[i:])
	p.times = p.times[:n]
	p.free = p.free[:n]
	p.times[0] = now
}

// window reports whether procs cores remain free throughout [t, t+dur) and
// the minimum free count seen over the window.
//
// minFree contract: on the true path it is the minimum over every segment
// the window touches. On the false path it is a PARTIAL minimum — only the
// segments up to and including the first failing one were examined — so it
// must not be used as the window's minimum. The simulator only consumes
// minFree from successful windows (earliestStart propagates it exclusively
// alongside a feasible start, where it bounds the backfill "extra cores"
// budget); TestWindowMinFreeContract pins this so the allowance cannot
// silently widen.
func (p *profile) window(t, dur float64, procs int) (bool, int) {
	ok, mf, _ := p.windowIdx(t, dur, procs)
	return ok, mf
}

// windowIdx is window plus the index of the failing segment on the false
// path (-1 on success), which earliestStart uses to skip doomed candidates.
func (p *profile) windowIdx(t, dur float64, procs int) (bool, int, int) {
	end := t + dur
	minFree := math.MaxInt64
	// examine the segment containing t and all breakpoints within (t, end)
	i := searchF64(p.times, t)
	if i >= len(p.times) || p.times[i] != t {
		if i > 0 {
			i--
		}
	}
	// The containing segment is always examined, even for an empty window
	// (dur == 0): a zero-duration request still needs procs cores free at
	// its start instant, independent of breakpoint placement.
	i0 := i
	for ; i < len(p.times); i++ {
		segStart := p.times[i]
		if i > i0 && segStart >= end {
			break
		}
		if p.free[i] < minFree {
			minFree = p.free[i]
		}
		if p.free[i] < procs {
			return false, minFree, i
		}
	}
	if minFree == math.MaxInt64 {
		minFree = p.free[len(p.free)-1]
	}
	return true, minFree, -1
}

// startWindow is how far past the current instant a conservative pass
// still starts a planned job, so that float noise in a planned start cannot
// strand a job the plan meant to start now.
const startWindow = 1e-9

// reservationEnd is the end of the interval a reservation of dur seconds
// from t blocks: t+dur, unless that falls inside the start window of t.
// A job takes its cores at its start instant even when it runs for no time
// at all, and the pass that starts it also starts every job planned within
// (t, t+startWindow] — in descending queue position, so before it. A
// reservation ending inside that window (a zero-duration job's empty
// [t, t) above all) would leave its cores to such a job, so it ends just
// past the window instead.
func reservationEnd(t, dur float64) float64 {
	end := t + dur
	if w := t + startWindow; end <= w {
		end = math.Nextafter(w, math.Inf(1))
	}
	return end
}

// reserve subtracts procs cores over [t, reservationEnd(t, dur)) from the
// profile, splitting segments as needed. Used by conservative backfilling
// to plan multiple reservations. The caller must have verified feasibility
// via window().
func (p *profile) reserve(t, dur float64, procs int) {
	p.add(t, reservationEnd(t, dur), -procs)
}

// add adds delta cores over [t, end), splitting segments as needed.
func (p *profile) add(t, end float64, delta int) {
	p.split(t)
	p.split(end)
	// Only segments in [t, end) change; start at the first breakpoint >= t
	// instead of scanning the whole profile.
	for i := searchF64(p.times, t); i < len(p.times) && p.times[i] < end; i++ {
		p.free[i] += delta
	}
}

// split inserts a breakpoint at time t (no-op if present or before start).
// The append grows into existing capacity in the steady state: conservative
// planning reuses per-partition scratch profiles whose segment storage is
// retained across passes.
func (p *profile) split(t float64) {
	if t <= p.times[0] {
		return
	}
	i := searchF64(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return
	}
	// value carried over from the preceding segment
	v := p.free[i-1]
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.free[i+1:], p.free[i:])
	p.times[i] = t
	p.free[i] = v
}
