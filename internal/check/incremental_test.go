package check

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"crosssched/internal/sim"
)

// The incremental-profile invariant introduced with the simulator's fast
// path: a sim.AvailSet maintained by Add/Remove must, at every step,
// materialize exactly the profile a from-scratch rebuild produces
// (sim.ReferenceSnapshot == the old per-pass newProfile reconstruction),
// and planning on top of it (earliest starts, conservative reservations)
// must agree with this package's naive availability model.

// refMultiset tracks the live (end, procs) pairs the AvailSet should hold.
type refMultiset struct {
	ends []sim.JobEnd
}

func (m *refMultiset) add(end float64, procs int) {
	m.ends = append(m.ends, sim.JobEnd{End: end, Procs: procs})
}

// removeRandom retracts one live entry and returns it.
func (m *refMultiset) removeRandom(rng *rand.Rand) sim.JobEnd {
	return m.removeAt(rng.Intn(len(m.ends)))
}

// removeRank retracts the live entry of the given rank in end order (0 is
// the earliest end, the AvailSet's front) and returns it.
func (m *refMultiset) removeRank(rank int) sim.JobEnd {
	idx := make([]int, len(m.ends))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return m.ends[idx[a]].End < m.ends[idx[b]].End })
	return m.removeAt(idx[rank])
}

// removeAt retracts live entry i, keeping the others in insertion order.
func (m *refMultiset) removeAt(i int) sim.JobEnd {
	e := m.ends[i]
	m.ends = append(m.ends[:i], m.ends[i+1:]...)
	return e
}

// snapshotsEqual compares an incremental snapshot against the reference.
func snapshotsEqual(t *testing.T, a *sim.AvailSet, ends []sim.JobEnd, now float64, freeNow int, step string) {
	t.Helper()
	gotT, gotF := a.Snapshot(now, freeNow)
	wantT, wantF := sim.ReferenceSnapshot(now, freeNow, ends)
	if len(gotT) != len(wantT) {
		t.Fatalf("%s: %d breakpoints incremental vs %d rebuilt", step, len(gotT), len(wantT))
	}
	for i := range gotT {
		if gotT[i] != wantT[i] || gotF[i] != wantF[i] {
			t.Fatalf("%s: breakpoint %d = (%v, %d) incremental vs (%v, %d) rebuilt",
				step, i, gotT[i], gotF[i], wantT[i], wantF[i])
		}
	}
}

// shadowMatchesPlanner asserts that the AvailSet's one-scan shadow (the
// simulator's blocked-head query) equals the earliest start the built
// planner finds, for any duration, from every kind of starting point: now,
// exactly on each breakpoint, between breakpoints, and past the last one.
func shadowMatchesPlanner(t *testing.T, set *sim.AvailSet, now float64, free, procs int, step string) {
	t.Helper()
	pl := set.NewPlanner(now, free)
	times, _ := set.Snapshot(now, free)
	froms := []float64{now}
	for _, bt := range times {
		froms = append(froms, bt, bt+0.5)
	}
	froms = append(froms, times[len(times)-1]+7)
	for _, from := range froms {
		got, gotMf := set.Shadow(now, free, from, procs)
		for _, dur := range []float64{0, 1, 17, 1e6, math.Inf(1)} {
			want, wantMf := pl.EarliestStart(from, procs, dur)
			if got != want || gotMf != wantMf {
				t.Fatalf("%s: Shadow(now=%v, free=%d, from=%v, procs=%d) = (%v, %d), planner with dur %v gives (%v, %d)",
					step, now, free, from, procs, got, gotMf, dur, want, wantMf)
			}
		}
	}
}

// TestIncrementalProfileMatchesRebuild drives randomized start/release
// sequences through an AvailSet and asserts after every single operation
// that the incrementally-maintained profile is identical to a fresh rebuild
// — the exact per-pass reconstruction the simulator used to perform. The
// shapes steer the set's layout: releases from the front (the set's dead
// prefix grows, and appends reaching capacity slide the live span down),
// from the back and from the middle, and starts at the latest end or near
// the earliest (inserts through the dead prefix).
func TestIncrementalProfileMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	shapes := []struct {
		name   string
		remove func(n int) int // rank in end order of the entry to release
		spread int             // ends fall in [now-2, now-2+spread)
		latest bool            // starts trend to the latest end
	}{
		{"random", nil, 20, false},
		{"front", func(int) int { return 0 }, 400, true},
		{"back", func(n int) int { return n - 1 }, 400, false},
		{"middle", func(n int) int { return n / 2 }, 400, false},
		{"front-early-starts", func(int) int { return 0 }, 400, false},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 8; trial++ {
			var set sim.AvailSet
			var ref refMultiset
			now := float64(rng.Intn(1000))
			// Coarse end values force frequent exact collisions, exercising
			// the aggregation paths (Procs summing, entry removal at zero).
			last := now
			endAt := func() float64 {
				if sh.latest {
					last += float64(rng.Intn(3))
					return last
				}
				if sh.remove != nil && rng.Intn(2) == 0 && len(ref.ends) > 0 {
					// Near the earliest live end: the insert's shorter side
					// is the front.
					lo := ref.ends[0].End
					for _, e := range ref.ends {
						lo = min(lo, e.End)
					}
					return lo + float64(rng.Intn(3))
				}
				return now + float64(rng.Intn(sh.spread)) - 2
			}
			for op := 0; op < 300; op++ {
				// Starts outnumber releases 2:1 until 40 ends are live,
				// then the two balance.
				if len(ref.ends) == 0 || rng.Intn(3) > 0 && len(ref.ends) < 40 || rng.Intn(2) == 0 {
					end, procs := endAt(), 1+rng.Intn(16)
					set.Add(end, procs)
					ref.add(end, procs)
				} else {
					var e sim.JobEnd
					if sh.remove == nil {
						e = ref.removeRandom(rng)
					} else {
						e = ref.removeRank(sh.remove(len(ref.ends)))
					}
					set.Remove(e.End, e.Procs)
				}
				// now also advances between scheduling passes; check a few
				// vantage points including times past some pending ends.
				for _, at := range []float64{now, now + 5, now + 25} {
					snapshotsEqual(t, &set, ref.ends, at, 4+rng.Intn(60), sh.name)
				}
			}
		}
	}
}

// TestPlannerMatchesNaiveAvailability cross-checks the fast planner (the
// profile machinery the simulator's backfill planners run on) against this
// package's deliberately naive availability model: same free counts at all
// probe times, same earliest-start decisions, through randomized
// reservation sequences. Before any reservation, the AvailSet's one-scan
// shadow must match the planner too (the first trial's set is empty).
func TestPlannerMatchesNaiveAvailability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		now := float64(rng.Intn(100))
		capacity := 8 + rng.Intn(120)
		var set sim.AvailSet
		var ends []plannedEnd
		used := 0
		// Trial 0 keeps the set empty.
		for trial > 0 && used < capacity && rng.Intn(5) > 0 {
			procs := 1 + rng.Intn(capacity-used)
			end := now + float64(rng.Intn(50)) - 5
			set.Add(end, procs)
			ends = append(ends, plannedEnd{end: end, procs: procs})
			used += procs
		}
		free := capacity - used

		// The head's shadow scan, up to a request above the final free
		// count (every running job ended).
		for _, procs := range []int{1, 1 + rng.Intn(capacity), free, free + 1, capacity, capacity + 1} {
			shadowMatchesPlanner(t, &set, now, free, procs, fmt.Sprintf("trial %d", trial))
		}

		fast := set.NewPlanner(now, free)
		naive := newAvailability(now, free, ends)

		// Interleave earliest-start queries with conservative reservations,
		// mirroring conservativePass's plan-then-reserve loop.
		for q := 0; q < 12; q++ {
			procs := 1 + rng.Intn(capacity)
			dur := float64(1 + rng.Intn(40))
			gotSt, gotMf := fast.EarliestStart(now, procs, dur)
			wantSt, wantMf := naive.earliest(now, procs, dur)
			if gotSt != wantSt || gotMf != wantMf {
				t.Fatalf("trial %d query %d (procs=%d dur=%v): planner (%v, %d) vs naive (%v, %d)",
					trial, q, procs, dur, gotSt, gotMf, wantSt, wantMf)
			}
			if procs <= capacity {
				fast.Reserve(gotSt, dur, procs)
				naive.reserve(gotSt, dur, procs)
			}
			// Free counts must agree everywhere, including at and between
			// the naive model's breakpoints.
			for _, p := range naive.points() {
				for _, at := range []float64{p, p + 0.5} {
					if at < now {
						continue
					}
					if g, w := fast.FreeAt(at), naive.freeAt(at); g != w {
						t.Fatalf("trial %d query %d: freeAt(%v) = %d vs naive %d", trial, q, at, g, w)
					}
				}
			}
		}
	}
}

// FuzzIncrementalProfile feeds arbitrary operation tapes to the AvailSet and
// asserts the rebuild invariant after every operation, then checks one
// planning query against the naive model. Each tape byte pair is an end
// and an op: a start at that end, or a release of the oldest live entry
// or of the live entry of a given rank in end order (front, back or
// middle). The set's one-scan shadow must also equal the built planner's
// earliest start, on the empty set and on the final one. Seeds cover
// aggregation (equal ends), overdue ends (before now), full-capacity sets,
// and long front-release runs that grow the set's dead prefix, insert
// through it, and slide the live span down.
func FuzzIncrementalProfile(f *testing.F) {
	f.Add([]byte{10, 4, 10, 4, 10, 8, 255, 1, 3, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 200, 200, 9, 9})
	f.Add([]byte{50, 16, 40, 8, 30, 4, 20, 2, 10, 1})
	f.Add([]byte{1, 255, 2, 254, 3, 253})
	// Completions in end order against monotone starts, with early starts
	// and back/middle releases mixed in.
	var tape []byte
	for i := 0; i < 120; i++ {
		tape = append(tape, byte(i*2), byte(i%5))
		switch {
		case i%3 == 2:
			tape = append(tape, 0, 7) // release the front
		case i%17 == 16:
			tape = append(tape, byte(i), 2, 255, 7) // early start, release the back
		case i%23 == 22:
			tape = append(tape, 128, 7) // release the middle
		}
	}
	f.Add(tape)

	f.Fuzz(func(t *testing.T, data []byte) {
		const now = 64.0
		var set sim.AvailSet
		var ref refMultiset
		shadowMatchesPlanner(t, &set, now, 7, 8, "empty set")
		for i := 0; i+1 < len(data); i += 2 {
			endByte, opByte := data[i], data[i+1]
			switch {
			case opByte%8 == 3 && len(ref.ends) > 0:
				// retract the oldest live entry
				e := ref.removeAt(0)
				set.Remove(e.End, e.Procs)
			case opByte%8 == 7 && len(ref.ends) > 0:
				// retract by rank: endByte 0 is the front, 255 the back
				e := ref.removeRank(int(endByte) * (len(ref.ends) - 1) / 255)
				set.Remove(e.End, e.Procs)
			default:
				end := float64(endByte) // may be before, at, or after now
				procs := 1 + int(opByte)%32
				set.Add(end, procs)
				ref.add(end, procs)
			}
			gotT, gotF := set.Snapshot(now, 7)
			wantT, wantF := sim.ReferenceSnapshot(now, 7, ref.ends)
			if len(gotT) != len(wantT) {
				t.Fatalf("op %d: %d breakpoints vs rebuilt %d", i/2, len(gotT), len(wantT))
			}
			for k := range gotT {
				if gotT[k] != wantT[k] || gotF[k] != wantF[k] {
					t.Fatalf("op %d: breakpoint %d = (%v, %d) vs rebuilt (%v, %d)",
						i/2, k, gotT[k], gotF[k], wantT[k], wantF[k])
				}
			}
		}
		// The shadow scan on the final set, against the built planner.
		_, free := set.Snapshot(now, 7)
		final := free[len(free)-1]
		for _, procs := range []int{1, 5, 7, 8, final, final + 1} {
			shadowMatchesPlanner(t, &set, now, 7, procs, "final set")
		}
		// One planning query against the naive reference model.
		ends := make([]plannedEnd, len(ref.ends))
		for i, e := range ref.ends {
			ends[i] = plannedEnd{end: e.End, procs: e.Procs}
		}
		fast := set.NewPlanner(now, 7)
		naive := newAvailability(now, 7, ends)
		gotSt, gotMf := fast.EarliestStart(now, 5, 17)
		wantSt, wantMf := naive.earliest(now, 5, 17)
		if gotSt != wantSt || gotMf != wantMf {
			t.Fatalf("earliest(5, 17): planner (%v, %d) vs naive (%v, %d)", gotSt, gotMf, wantSt, wantMf)
		}
	})
}
