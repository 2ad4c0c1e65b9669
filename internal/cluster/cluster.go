// Package cluster models the compute resource a scheduler allocates from:
// a pool of interchangeable cores (CPU cores or GPUs) optionally partitioned
// into isolated virtual clusters (VCs), as in Microsoft's Philly. It also
// accumulates the busy core-seconds needed for utilization reporting.
//
// The model is deliberately count-based (no topology): the paper's
// simulator, SchedGym, schedules against core counts, and all of the
// paper's metrics (utilization, wait, bsld, violations) depend only on
// counts and times.
//
// Capacity is not necessarily constant: the fault-injection layer
// (internal/fault) drains cores during outages and restores them at repair
// time via Drain/Restore. Drained cores are neither free nor busy; the
// scheduler sees them only as a reduced free count, so the allocation hot
// path (CanAllocate/Free) is untouched by the fault machinery.
package cluster

import "fmt"

// Cluster tracks free capacity per partition and the utilization integral.
type Cluster struct {
	total int   // total cores across all partitions
	free  []int // free cores per partition (len >= 1)
	caps  []int // capacity per partition
	down  []int // cores drained by capacity faults, per partition
	downT int   // sum of down

	// Utilization accounting: busyCoreSeconds integrates (busy cores) dt.
	lastTime        float64
	busyCoreSeconds float64
}

// New creates a single-partition cluster with the given core count. It
// returns an error when the count is not positive.
func New(totalCores int) (*Cluster, error) {
	return NewPartitioned([]int{totalCores})
}

// NewPartitioned creates a cluster with one isolated partition per entry of
// capacities. Jobs bound to partition i can only use capacity i; jobs with
// partition -1 may use the single partition 0 (only valid for unpartitioned
// clusters). It returns an error when there are no partitions or any
// capacity is not positive.
func NewPartitioned(capacities []int) (*Cluster, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("cluster: no partitions")
	}
	c := &Cluster{
		free: append([]int(nil), capacities...),
		caps: append([]int(nil), capacities...),
		down: make([]int, len(capacities)),
	}
	for i, cap := range capacities {
		if cap <= 0 {
			return nil, fmt.Errorf("cluster: partition %d has non-positive capacity %d", i, cap)
		}
		c.total += cap
	}
	return c, nil
}

// EvenPartitions splits totalCores into n near-equal partitions (Philly's
// 14 virtual clusters). Remainders go to the first partitions.
func EvenPartitions(totalCores, n int) []int {
	if n <= 0 {
		n = 1
	}
	base := totalCores / n
	rem := totalCores % n
	out := make([]int, n)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Reset restores the cluster to its initial state — every core free, no
// drained capacity, and the utilization integral cleared — so a cached
// cluster can serve repeated simulation runs (sim.Runner) without
// reallocation.
func (c *Cluster) Reset() {
	copy(c.free, c.caps)
	for i := range c.down {
		c.down[i] = 0
	}
	c.downT = 0
	c.lastTime = 0
	c.busyCoreSeconds = 0
}

// Clone returns an independent copy of the cluster, including the
// utilization integral, so a paused simulation can be forked (sim's
// checkpoint/what-if machinery) without the copies sharing any state.
func (c *Cluster) Clone() *Cluster {
	d := *c
	d.free = append([]int(nil), c.free...)
	d.caps = append([]int(nil), c.caps...)
	d.down = append([]int(nil), c.down...)
	return &d
}

// Total returns the total core count.
func (c *Cluster) Total() int { return c.total }

// Partitions returns the number of partitions.
func (c *Cluster) Partitions() int { return len(c.caps) }

// Capacity returns the nominal capacity of partition p (p = -1 means
// partition 0), ignoring drained cores.
func (c *Cluster) Capacity(p int) int {
	return c.caps[c.norm(p)]
}

// DownCores returns the drained core count of partition p.
func (c *Cluster) DownCores(p int) int {
	return c.down[c.norm(p)]
}

// Free returns the free cores in partition p (p = -1 means partition 0).
func (c *Cluster) Free(p int) int {
	return c.free[c.norm(p)]
}

// FreeTotal returns free cores across all partitions.
func (c *Cluster) FreeTotal() int {
	sum := 0
	for _, f := range c.free {
		sum += f
	}
	return sum
}

// Busy returns the busy (job-occupied) core count across all partitions.
// Drained cores are neither free nor busy.
func (c *Cluster) Busy() int { return c.total - c.downT - c.FreeTotal() }

// norm maps the -1 alias to partition 0 and bounds-checks p. The panic
// formatting lives in badPartition so norm stays within the inlining budget:
// Free and CanAllocate sit on the simulator's per-event hot path, and an
// out-of-line norm call per query is measurable there. Out-of-range
// partitions stay a panic here (an internal invariant violation, not an
// input error): the public constructors and the cmd-level flag validation
// reject bad shapes before any hot-path query can see them.
func (c *Cluster) norm(p int) int {
	if p < 0 {
		return 0
	}
	if p >= len(c.caps) {
		c.badPartition(p)
	}
	return p
}

func (c *Cluster) badPartition(p int) {
	panic(fmt.Sprintf("cluster: partition %d out of range (%d partitions)", p, len(c.caps)))
}

// CanAllocate reports whether n cores are currently free in partition p.
func (c *Cluster) CanAllocate(p, n int) bool {
	return n <= c.free[c.norm(p)]
}

// Allocate takes n cores from partition p at time now. It returns an error
// (and changes nothing) when the partition lacks capacity.
func (c *Cluster) Allocate(now float64, p, n int) error {
	i := c.norm(p)
	if n <= 0 {
		return fmt.Errorf("cluster: allocate non-positive count %d", n)
	}
	if n > c.free[i] {
		return fmt.Errorf("cluster: partition %d has %d free, need %d", i, c.free[i], n)
	}
	c.advance(now)
	c.free[i] -= n
	return nil
}

// Release returns n cores to partition p at time now. It returns an error
// when the release would exceed the partition's usable capacity.
func (c *Cluster) Release(now float64, p, n int) error {
	i := c.norm(p)
	if n <= 0 {
		return fmt.Errorf("cluster: release non-positive count %d", n)
	}
	if c.free[i]+n > c.caps[i]-c.down[i] {
		return fmt.Errorf("cluster: releasing %d would exceed partition %d capacity", n, i)
	}
	c.advance(now)
	c.free[i] += n
	return nil
}

// Drain marks n currently-free cores of partition p as down at time now (a
// capacity fault). The caller must have freed enough cores first — by
// interrupting running jobs if necessary — so a drain never overdraws the
// free pool.
func (c *Cluster) Drain(now float64, p, n int) error {
	i := c.norm(p)
	if n <= 0 {
		return fmt.Errorf("cluster: drain non-positive count %d", n)
	}
	if n > c.free[i] {
		return fmt.Errorf("cluster: draining %d but partition %d has only %d free", n, i, c.free[i])
	}
	c.advance(now)
	c.free[i] -= n
	c.down[i] += n
	c.downT += n
	return nil
}

// Restore returns n previously-drained cores of partition p to service at
// time now (outage repair).
func (c *Cluster) Restore(now float64, p, n int) error {
	i := c.norm(p)
	if n <= 0 {
		return fmt.Errorf("cluster: restore non-positive count %d", n)
	}
	if n > c.down[i] {
		return fmt.Errorf("cluster: restoring %d but partition %d has only %d down", n, i, c.down[i])
	}
	c.advance(now)
	c.down[i] -= n
	c.downT -= n
	c.free[i] += n
	return nil
}

// advance integrates busy core-seconds up to now.
func (c *Cluster) advance(now float64) {
	if now > c.lastTime {
		c.busyCoreSeconds += float64(c.Busy()) * (now - c.lastTime)
		c.lastTime = now
	}
}

// Utilization returns busy core-seconds divided by total nominal capacity
// over [0, now] — the paper's "util" metric. The denominator stays nominal
// under capacity faults, so drained capacity shows up as lost utilization.
// It finalizes the integral at now.
func (c *Cluster) Utilization(now float64) float64 {
	c.advance(now)
	if now <= 0 {
		return 0
	}
	return c.busyCoreSeconds / (float64(c.total) * now)
}
