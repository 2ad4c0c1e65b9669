package check

import (
	"math"
	"sort"
)

// availability is the oracle's naive free-cores-over-time model. The base
// step function is rebuilt from scratch from the running set on every query
// site, and conservative reservations are kept as a plain list subtracted at
// evaluation time — nothing is maintained incrementally.
//
// The window predicate ("procs cores stay free throughout [t, t+dur)") is
// the same spec internal/sim/profile.go implements, so both sides pick
// identical start times; only the representation differs.
type availability struct {
	baseTimes []float64 // ascending breakpoints; baseTimes[0] == now
	baseFree  []int     // free cores from baseTimes[i] until the next breakpoint
	resv      []reservation
}

// reservation blocks procs cores during [start, end) while planning
// conservative backfilling.
type reservation struct {
	start, end float64
	procs      int
}

// plannedEnd is one running job's planning-horizon completion.
type plannedEnd struct {
	end   float64
	procs int
}

// availability builds the partition's free-core step function at o.now from
// the planned (estimate-based) ends of its running jobs.
func (o *oracle) availability(p int) *availability {
	ends := make([]plannedEnd, 0, len(o.running[p]))
	for _, ji := range o.running[p] {
		j := &o.jobs[ji]
		ends = append(ends, plannedEnd{end: j.plannedEnd(), procs: j.procs})
	}
	return newAvailability(o.now, o.free[p], ends)
}

// newAvailability folds raw (end, procs) pairs into the naive step function.
// It is the reference construction the incremental-profile property tests
// compare sim.AvailSet against.
func newAvailability(now float64, freeNow int, ends []plannedEnd) *availability {
	sorted := append([]plannedEnd(nil), ends...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].end < sorted[b].end })

	a := &availability{baseTimes: []float64{now}, baseFree: []int{freeNow}}
	cur := freeNow
	for _, e := range sorted {
		t := e.end
		if t < now {
			t = now // overdue planned end: cores free from now on
		}
		cur += e.procs
		last := len(a.baseTimes) - 1
		if t == a.baseTimes[last] {
			a.baseFree[last] = cur
		} else {
			a.baseTimes = append(a.baseTimes, t)
			a.baseFree = append(a.baseFree, cur)
		}
	}
	return a
}

// points returns the ascending, deduplicated union of base breakpoints and
// reservation edges.
func (a *availability) points() []float64 {
	pts := append([]float64(nil), a.baseTimes...)
	for _, r := range a.resv {
		pts = append(pts, r.start, r.end)
	}
	sort.Float64s(pts)
	dedup := pts[:1]
	for _, t := range pts[1:] {
		if t != dedup[len(dedup)-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup
}

// freeAt evaluates the step function at time t (t >= baseTimes[0]):
// base free cores minus any reservation active at t.
func (a *availability) freeAt(t float64) int {
	i := sort.SearchFloat64s(a.baseTimes, t)
	if i >= len(a.baseTimes) || a.baseTimes[i] != t {
		i--
	}
	if i < 0 {
		i = 0
	}
	free := a.baseFree[i]
	for _, r := range a.resv {
		if r.start <= t && t < r.end {
			free -= r.procs
		}
	}
	return free
}

// window reports whether procs cores stay free throughout [t, t+dur), and
// the minimum free count over the examined segments.
func (a *availability) window(t, dur float64, procs int) (bool, int) {
	pts := a.points()
	end := t + dur
	minFree := math.MaxInt64
	// start at the segment containing t; that segment is always examined,
	// even for an empty window (dur == 0): a zero-duration request still
	// needs procs cores free at its start instant, and the answer must
	// depend on the step function, not on whether t happens to coincide
	// with a stored breakpoint. internal/sim/profile.go applies the same
	// rule, so both sides keep picking identical start times.
	i := sort.SearchFloat64s(pts, t)
	if i >= len(pts) || pts[i] != t {
		if i > 0 {
			i--
		}
	}
	i0 := i
	for ; i < len(pts); i++ {
		if i > i0 && pts[i] >= end {
			break
		}
		f := a.freeAt(pts[i])
		if f < minFree {
			minFree = f
		}
		if f < procs {
			return false, minFree
		}
	}
	if minFree == math.MaxInt64 {
		minFree = a.freeAt(pts[len(pts)-1])
	}
	return true, minFree
}

// earliest returns the first time >= from at which procs cores stay free
// for dur seconds, plus the minimum free count over that window.
func (a *availability) earliest(from float64, procs int, dur float64) (float64, int) {
	if ok, mf := a.window(from, dur, procs); ok {
		return from, mf
	}
	pts := a.points()
	for _, c := range pts {
		if c <= from {
			continue
		}
		if ok, mf := a.window(c, dur, procs); ok {
			return c, mf
		}
	}
	// Past the last breakpoint everything running has ended.
	last := pts[len(pts)-1]
	if last < from {
		last = from
	}
	return last, a.freeAt(pts[len(pts)-1])
}

// reserve blocks procs cores during [t, t+dur) for later queries. A job
// holds its cores at its start instant even when it runs for no time, and
// every job planned within 1e-9 s after t starts in the same pass (before
// it, in descending queue position), so a reservation ending within that
// window is stretched to end just past it: an empty [t, t) would block
// nothing.
func (a *availability) reserve(t, dur float64, procs int) {
	end := t + dur
	if w := t + 1e-9; end <= w {
		end = math.Nextafter(w, math.Inf(1))
	}
	a.resv = append(a.resv, reservation{start: t, end: end, procs: procs})
}
