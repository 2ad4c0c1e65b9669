package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

// mustNew builds a cluster or fails the test.
func mustNew(t *testing.T, capacities ...int) *Cluster {
	t.Helper()
	c, err := NewPartitioned(capacities)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewAndAccessors(t *testing.T) {
	c := mustNew(t, 100)
	if c.Total() != 100 || c.Partitions() != 1 || c.Free(-1) != 100 || c.Capacity(0) != 100 {
		t.Fatalf("bad initial state: %+v", c)
	}
	if c.Busy() != 0 || c.FreeTotal() != 100 {
		t.Fatal("fresh cluster should be idle")
	}
	if c.Capacity(0)-c.DownCores(0) != 100 || c.DownCores(0) != 0 {
		t.Fatal("fresh cluster should have no drained capacity")
	}
}

func TestAllocateRelease(t *testing.T) {
	c := mustNew(t, 10)
	if err := c.Allocate(0, -1, 4); err != nil {
		t.Fatal(err)
	}
	if c.Free(0) != 6 || c.Busy() != 4 {
		t.Fatalf("free=%d busy=%d", c.Free(0), c.Busy())
	}
	if err := c.Allocate(1, 0, 7); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if err := c.Release(2, 0, 4); err != nil {
		t.Fatal(err)
	}
	if c.Free(0) != 10 {
		t.Fatalf("free after release = %d", c.Free(0))
	}
	if err := c.Release(3, 0, 1); err == nil {
		t.Fatal("over-release accepted")
	}
}

func TestAllocateRejectsNonPositive(t *testing.T) {
	c := mustNew(t, 10)
	if err := c.Allocate(0, 0, 0); err == nil {
		t.Fatal("zero allocation accepted")
	}
	if err := c.Release(0, 0, -1); err == nil {
		t.Fatal("negative release accepted")
	}
}

func TestPartitionIsolation(t *testing.T) {
	c := mustNew(t, 5, 5)
	if err := c.Allocate(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	// partition 0 is full; partition 1 still has room
	if c.CanAllocate(0, 1) {
		t.Fatal("partition 0 should be full")
	}
	if !c.CanAllocate(1, 5) {
		t.Fatal("partition 1 should be free")
	}
	if err := c.Allocate(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if c.FreeTotal() != 2 || c.Busy() != 8 {
		t.Fatalf("free=%d busy=%d", c.FreeTotal(), c.Busy())
	}
}

func TestPartitionOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mustNew(t, 10).Free(3)
}

func TestBadConstructionErrors(t *testing.T) {
	if _, err := NewPartitioned(nil); err == nil {
		t.Fatal("empty partition list accepted")
	}
	if _, err := NewPartitioned([]int{5, 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("negative core count accepted")
	}
}

func TestDrainRestore(t *testing.T) {
	c := mustNew(t, 10)
	if err := c.Allocate(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(1, 0, 3); err != nil {
		t.Fatal(err)
	}
	if c.Free(0) != 3 || c.DownCores(0) != 3 || c.Capacity(0)-c.DownCores(0) != 7 || c.Busy() != 4 {
		t.Fatalf("after drain: free=%d down=%d eff=%d busy=%d",
			c.Free(0), c.DownCores(0), c.Capacity(0)-c.DownCores(0), c.Busy())
	}
	if c.Capacity(0) != 10 {
		t.Fatal("nominal capacity changed by drain")
	}
	// Draining more than is free must fail.
	if err := c.Drain(1, 0, 4); err == nil {
		t.Fatal("overdraw drain accepted")
	}
	// A release may not exceed the effective capacity while cores are down.
	if err := c.Release(2, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(2, 0, 1); err == nil {
		t.Fatal("release into drained capacity accepted")
	}
	if err := c.Restore(3, 0, 3); err != nil {
		t.Fatal(err)
	}
	if c.Free(0) != 10 || c.DownCores(0) != 0 || c.Capacity(0)-c.DownCores(0) != 10 {
		t.Fatalf("after restore: free=%d down=%d", c.Free(0), c.DownCores(0))
	}
	if err := c.Restore(3, 0, 1); err == nil {
		t.Fatal("restore of never-drained cores accepted")
	}
	if err := c.Drain(4, 0, 0); err == nil {
		t.Fatal("zero drain accepted")
	}
	if err := c.Restore(4, 0, -1); err == nil {
		t.Fatal("negative restore accepted")
	}
}

func TestDrainUtilization(t *testing.T) {
	c := mustNew(t, 10)
	// 5 busy over [0,10); at t=10 drain 5 (the idle half). Busy stays 5
	// until release at t=20; util over [0,20] = (5*20)/(10*20) = 0.5.
	if err := c.Allocate(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(10, 0, 5); err != nil {
		t.Fatal(err)
	}
	if c.Busy() != 5 {
		t.Fatalf("busy=%d after drain, want 5 (drained cores are not busy)", c.Busy())
	}
	if err := c.Release(20, 0, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.Utilization(20); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization %v want 0.5", got)
	}
}

func TestResetClearsDrain(t *testing.T) {
	c := mustNew(t, 10)
	if err := c.Drain(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.Free(0) != 10 || c.DownCores(0) != 0 || c.Busy() != 0 || c.busyCoreSeconds != 0 {
		t.Fatalf("reset left state behind: %+v", c)
	}
}

func TestEvenPartitions(t *testing.T) {
	p := EvenPartitions(10, 3)
	if p[0] != 4 || p[1] != 3 || p[2] != 3 {
		t.Fatalf("partitions = %v", p)
	}
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("partition sum %d want 10", sum)
	}
	if got := EvenPartitions(10, 0); len(got) != 1 || got[0] != 10 {
		t.Fatalf("n=0 fallback wrong: %v", got)
	}
}

func TestUtilizationIntegral(t *testing.T) {
	c := mustNew(t, 10)
	// 5 cores busy from t=0 to t=10, idle from 10 to 20 -> util over 20s = 0.25
	if err := c.Allocate(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(10, 0, 5); err != nil {
		t.Fatal(err)
	}
	got := c.Utilization(20)
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("utilization %v want 0.25", got)
	}
	if c.Utilization(0) != 0 {
		// now<=0 guard — utilization at t=0 should be 0 not NaN
		t.Fatal("utilization at t=0 should be 0")
	}
}

func TestUtilizationFullLoad(t *testing.T) {
	c := mustNew(t, 4)
	if err := c.Allocate(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if got := c.Utilization(100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("full-load utilization %v want 1", got)
	}
}

// Property: any sequence of valid allocations, releases, drains, and
// restores conserves capacity: free + busy + down == total, with every
// per-partition count within [0, capacity].
func TestConservationPropertyQuick(t *testing.T) {
	type op struct {
		Kind uint8
		Part uint8
		N    uint8
	}
	f := func(ops []op) bool {
		c := mustNew(t, 8, 8, 8)
		now := 0.0
		for _, o := range ops {
			now += 1
			p := int(o.Part) % 3
			n := int(o.N)%8 + 1
			switch o.Kind % 4 { // errors allowed; must not corrupt
			case 0:
				_ = c.Allocate(now, p, n)
			case 1:
				_ = c.Release(now, p, n)
			case 2:
				_ = c.Drain(now, p, n)
			case 3:
				_ = c.Restore(now, p, n)
			}
			down := 0
			for i := 0; i < 3; i++ {
				down += c.DownCores(i)
				if c.Free(i) < 0 || c.Free(i) > c.Capacity(i) {
					return false
				}
				if c.DownCores(i) < 0 || c.DownCores(i) > c.Capacity(i) {
					return false
				}
				if c.Free(i) > c.Capacity(i)-c.DownCores(i) {
					return false
				}
			}
			if c.FreeTotal()+c.Busy()+down != c.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization is always within [0, 1].
func TestUtilizationBoundedPropertyQuick(t *testing.T) {
	f := func(steps []uint8) bool {
		c := mustNew(t, 16)
		now := 0.0
		allocated := 0
		for _, s := range steps {
			now += float64(s%10) + 0.5
			n := int(s)%5 + 1
			if allocated+n <= 16 && s%2 == 0 {
				if c.Allocate(now, 0, n) == nil {
					allocated += n
				}
			} else if allocated >= n {
				if c.Release(now, 0, n) == nil {
					allocated -= n
				}
			}
			u := c.Utilization(now)
			if u < 0 || u > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
