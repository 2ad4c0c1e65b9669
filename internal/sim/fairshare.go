package sim

import (
	"math"
)

// Fairshare ordering: Philly's scheduler (and most production DL cluster
// managers) order the queue by how little each user has recently consumed,
// so light users jump ahead of heavy ones. The simulator implements it as
// a decayed per-user usage account charged at dispatch time; the queue is
// ordered by the owner's current usage, ties broken FCFS.
//
// The paper observes that fair sharing interacts badly with virtual-cluster
// isolation on Philly ("its fair-sharing scheduling policy is not working
// optimally when dealing with isolated virtual clusters") — reproduce that
// by combining FairshareState with a partitioned trace.

// FairshareState tracks decayed per-user core-seconds.
type FairshareState struct {
	// HalfLife is the usage decay half-life in seconds (default 24h).
	HalfLife float64

	usage map[int]float64
	last  map[int]float64
}

// NewFairshareState returns an empty account table.
func NewFairshareState(halfLife float64) *FairshareState {
	if halfLife <= 0 {
		halfLife = 86400
	}
	return &FairshareState{
		HalfLife: halfLife,
		usage:    map[int]float64{},
		last:     map[int]float64{},
	}
}

// Reset clears every usage account and re-arms the half-life, keeping the
// map storage so simulator reuse (sim.Runner) does not reallocate.
func (f *FairshareState) Reset(halfLife float64) {
	if halfLife <= 0 {
		halfLife = 86400
	}
	f.HalfLife = halfLife
	clear(f.usage)
	clear(f.last)
}

// Clone returns an independent copy of every usage account, so a paused
// simulation can be forked (checkpoint.go) without the copies sharing
// fair-share state.
func (f *FairshareState) Clone() *FairshareState {
	d := &FairshareState{
		HalfLife: f.HalfLife,
		usage:    make(map[int]float64, len(f.usage)),
		last:     make(map[int]float64, len(f.last)),
	}
	for u, v := range f.usage {
		d.usage[u] = v
	}
	for u, v := range f.last {
		d.last[u] = v
	}
	return d
}

// Usage returns user's decayed usage as of time now.
func (f *FairshareState) Usage(user int, now float64) float64 {
	u, ok := f.usage[user]
	if !ok {
		return 0
	}
	dt := now - f.last[user]
	if dt <= 0 {
		return u
	}
	return u * math.Exp2(-dt/f.HalfLife)
}

// Charge adds coreSeconds to user's account at time now.
func (f *FairshareState) Charge(user int, now, coreSeconds float64) {
	u := f.Usage(user, now)
	f.usage[user] = u + coreSeconds
	f.last[user] = now
}
