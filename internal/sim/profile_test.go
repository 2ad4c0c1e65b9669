package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestProfileEmpty(t *testing.T) {
	p := newProfile(0, 10, nil)
	if p.freeAt(0) != 10 || p.freeAt(100) != 10 {
		t.Fatal("empty profile should be constant")
	}
	st, mf, _ := p.earliestStart(0, 5, 100)
	if st != 0 || mf != 10 {
		t.Fatalf("earliestStart = %v, %v", st, mf)
	}
}

func TestProfileStep(t *testing.T) {
	// 2 free now; a 4-core job ends at t=10, an 8-core job ends at t=20.
	p := newProfile(0, 2, []JobEnd{{End: 10, Procs: 4}, {End: 20, Procs: 8}})
	if p.freeAt(0) != 2 || p.freeAt(9.99) != 2 {
		t.Fatalf("freeAt before first end wrong: %d", p.freeAt(0))
	}
	if p.freeAt(10) != 6 || p.freeAt(15) != 6 {
		t.Fatalf("freeAt after first end wrong: %d", p.freeAt(10))
	}
	if p.freeAt(20) != 14 || p.freeAt(1e9) != 14 {
		t.Fatalf("freeAt after second end wrong: %d", p.freeAt(20))
	}
}

func TestProfileEarliestStart(t *testing.T) {
	p := newProfile(0, 2, []JobEnd{{End: 10, Procs: 4}, {End: 20, Procs: 8}})
	// needs 6 cores for 5s: available at t=10
	st, mf, _ := p.earliestStart(0, 6, 5)
	if st != 10 {
		t.Fatalf("start = %v want 10", st)
	}
	if mf != 6 {
		t.Fatalf("minFree = %v want 6", mf)
	}
	// needs 6 cores for 15s: window [10,25) dips are none after 10 (6 then 14) -> still 10
	st, _, _ = p.earliestStart(0, 6, 15)
	if st != 10 {
		t.Fatalf("start = %v want 10", st)
	}
	// needs 10 cores: only after t=20
	st, _, _ = p.earliestStart(0, 10, 5)
	if st != 20 {
		t.Fatalf("start = %v want 20", st)
	}
	// needs 2 cores: immediately
	st, _, _ = p.earliestStart(0, 2, 1000)
	if st != 0 {
		t.Fatalf("start = %v want 0", st)
	}
}

func TestProfileEndsBeforeNowClamped(t *testing.T) {
	p := newProfile(100, 3, []JobEnd{{End: 50, Procs: 2}})
	if p.freeAt(100) != 5 {
		t.Fatalf("stale end not clamped: %d", p.freeAt(100))
	}
}

func TestProfileReserve(t *testing.T) {
	p := newProfile(0, 10, nil)
	p.reserve(5, 10, 4) // 4 cores over [5,15)
	if p.freeAt(0) != 10 || p.freeAt(5) != 6 || p.freeAt(14.9) != 6 || p.freeAt(15) != 10 {
		t.Fatalf("reserve wrong: %v %v", p.times, p.free)
	}
	// stacking another reservation
	p.reserve(10, 10, 3) // [10,20)
	if p.freeAt(12) != 3 || p.freeAt(16) != 7 || p.freeAt(20) != 10 {
		t.Fatalf("stacked reserve wrong: %v %v", p.times, p.free)
	}
}

// A zero-duration reservation still holds its cores at its start instant,
// through the start window of the pass that starts it: a job planned there
// would start in the same pass and take them first.
func TestProfileZeroDurationReserveBlocksStart(t *testing.T) {
	p := newProfile(0, 6, nil)
	p.reserve(10, 0, 6)
	if p.freeAt(10) != 0 || p.freeAt(10+startWindow) != 0 {
		t.Fatalf("zero-duration reservation blocks nothing: %v %v", p.times, p.free)
	}
	if p.freeAt(9.5) != 6 || p.freeAt(10.5) != 6 {
		t.Fatalf("zero-duration reservation blocks too much: %v %v", p.times, p.free)
	}
	// A 1-core job of 5 s cannot run across the reserved instant.
	if st, _, _ := p.earliestStart(6, 1, 5); st <= 10+startWindow {
		t.Fatalf("earliest start %v overlaps the reserved instant", st)
	}
	// reserveFrom builds the same step function.
	q := newProfile(0, 6, nil)
	st, _, idx := q.earliestStart(10, 6, 0)
	q.reserveFrom(idx, st, 0, 6)
	if !slices.Equal(q.times, p.times) || !slices.Equal(q.free, p.free) {
		t.Fatalf("reserveFrom (%v %v) differs from reserve (%v %v)", q.times, q.free, p.times, p.free)
	}
}

func TestProfileWindowRespectsReservations(t *testing.T) {
	p := newProfile(0, 10, nil)
	p.reserve(5, 10, 8)
	ok, _ := p.window(0, 4, 6)
	if !ok {
		t.Fatal("window [0,4) should fit 6 cores")
	}
	ok, _ = p.window(0, 6, 6)
	if ok {
		t.Fatal("window [0,6) overlaps the reservation; only 2 free")
	}
	st, _, _ := p.earliestStart(0, 6, 6)
	if st != 15 {
		t.Fatalf("earliest start around reservation = %v want 15", st)
	}
}

// Property: earliestStart always returns a feasible window.
func TestProfileEarliestFeasiblePropertyQuick(t *testing.T) {
	f := func(seedEnds []uint8, procsRaw, durRaw uint8) bool {
		capacity := 32
		used := 0
		var ends []JobEnd
		for i, e := range seedEnds {
			if i >= 6 {
				break
			}
			pr := int(e)%8 + 1
			if used+pr > capacity {
				break
			}
			used += pr
			ends = append(ends, JobEnd{End: float64(int(e)%50 + 1), Procs: pr})
		}
		p := newProfile(0, capacity-used, ends)
		procs := int(procsRaw)%capacity + 1
		dur := float64(durRaw%100) + 1
		st, _, _ := p.earliestStart(0, procs, dur)
		ok, _ := p.window(st, dur, procs)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWindowMinFreeContract pins window's minFree semantics so the backfill
// "extra cores" budget cannot silently widen:
//
//   - On the false path, minFree is a PARTIAL minimum — segments are only
//     examined up to and including the first one that fails — so it must
//     never be treated as the minimum over the whole requested window.
//   - earliestStart therefore only propagates minFree from a successful
//     window, where it is the exact minimum over every covered segment.
func TestWindowMinFreeContract(t *testing.T) {
	// free: 10 over [0,10), 2 over [10,20), 1 over [20,30), 10 from 30 on.
	p := newProfile(0, 10, nil)
	p.reserve(10, 20, 8) // 8 cores over [10,30)
	p.reserve(20, 10, 1) // 1 more over [20,30)
	if got := []int{p.freeAt(0), p.freeAt(10), p.freeAt(20), p.freeAt(30)}; got[0] != 10 || got[1] != 2 || got[2] != 1 || got[3] != 10 {
		t.Fatalf("fixture profile wrong: %v", got)
	}

	// The window fails at the second segment (2 < 5); the third segment
	// (free 1, the true window minimum) is never examined. The partial
	// minimum is 2, not 1 — that is the documented false-path contract.
	ok, mf := p.window(0, 30, 5)
	if ok {
		t.Fatal("window [0,30) should not fit 5 cores")
	}
	if mf != 2 {
		t.Fatalf("false-path minFree = %d; the partial up-to-failure minimum must be 2", mf)
	}

	// On the success path minFree is the exact minimum over the window.
	ok, mf = p.window(0, 10, 5)
	if !ok || mf != 10 {
		t.Fatalf("window [0,10): ok=%v minFree=%d, want true, 10", ok, mf)
	}
	ok, mf = p.window(10, 20, 1)
	if !ok || mf != 1 {
		t.Fatalf("window [10,30): ok=%v minFree=%d, want true, 1", ok, mf)
	}
}

// TestEarliestStartMinFreeExact verifies that the minFree earliestStart
// reports (the sole source of the backfill extra-cores budget) equals an
// independently recomputed minimum over the returned window, across many
// random profiles and queries.
func TestEarliestStartMinFreeExact(t *testing.T) {
	f := func(seedEnds []uint8, procsRaw, durRaw uint8) bool {
		capacity := 48
		used := 0
		var ends []JobEnd
		for i, e := range seedEnds {
			if i >= 8 {
				break
			}
			pr := int(e)%12 + 1
			if used+pr > capacity {
				break
			}
			used += pr
			ends = append(ends, JobEnd{End: float64(int(e)%60 + 1), Procs: pr})
		}
		p := newProfile(0, capacity-used, ends)
		procs := int(procsRaw)%capacity + 1
		dur := float64(durRaw%80) + 1
		st, mf, _ := p.earliestStart(0, procs, dur)
		// Recompute the window minimum from scratch via freeAt.
		want := p.freeAt(st)
		for i := range p.times {
			if p.times[i] > st && p.times[i] < st+dur && p.free[i] < want {
				want = p.free[i]
			}
		}
		return mf == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
