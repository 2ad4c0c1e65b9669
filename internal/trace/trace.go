package trace

import (
	"fmt"
	"sort"
)

// SystemKind distinguishes the categorization conventions the paper applies:
// HPC systems categorize job size relative to machine share, DL systems by
// absolute GPU count, and hybrid systems follow the HPC convention.
type SystemKind int

const (
	// HPC marks CPU-dominated classic supercomputers (Mira, Theta).
	HPC SystemKind = iota
	// DL marks GPU datacenters for deep learning (Philly, Helios).
	DL
	// Hybrid marks mixed CPU/GPU systems (Blue Waters).
	Hybrid
)

// String names the kind.
func (k SystemKind) String() string {
	switch k {
	case HPC:
		return "HPC"
	case DL:
		return "DL"
	case Hybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// System describes the machine a trace was collected on.
type System struct {
	Name string
	Kind SystemKind
	// TotalCores is the schedulable capacity in the trace's resource unit
	// (CPU cores for HPC, GPUs for DL, combined node-cores for hybrid).
	TotalCores int
	// CoresPerNode converts node counts to core counts where relevant.
	CoresPerNode int
	// VirtualClusters is the number of isolated scheduling partitions
	// (Philly has 14); 0 or 1 means a single shared pool.
	VirtualClusters int
	// StartHour is the local wall-clock hour at trace time zero, used to
	// compute the diurnal arrival pattern in local time.
	StartHour int
}

// Trace is an ordered collection of jobs plus the system description.
type Trace struct {
	System System
	Jobs   []Job
}

// New returns an empty trace for the given system.
func New(sys System) *Trace {
	return &Trace{System: sys}
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// SortBySubmit orders jobs by submission time (stable), re-assigning dense
// IDs in submit order. Generators and readers call this before analysis.
func (t *Trace) SortBySubmit() {
	sort.SliceStable(t.Jobs, func(i, j int) bool {
		return t.Jobs[i].Submit < t.Jobs[j].Submit
	})
	for i := range t.Jobs {
		t.Jobs[i].ID = i
	}
}

// Validate checks every job and submit-order monotonicity.
func (t *Trace) Validate() error {
	if t.System.TotalCores <= 0 {
		return fmt.Errorf("trace: system %q has non-positive capacity", t.System.Name)
	}
	prev := 0.0
	for i := range t.Jobs {
		if err := t.Jobs[i].validate(); err != nil {
			return err
		}
		if t.Jobs[i].Submit < prev {
			return fmt.Errorf("trace: job %d out of submit order", t.Jobs[i].ID)
		}
		prev = t.Jobs[i].Submit
		if t.Jobs[i].Procs > t.System.TotalCores {
			return fmt.Errorf("trace: job %d requests %d cores > capacity %d",
				t.Jobs[i].ID, t.Jobs[i].Procs, t.System.TotalCores)
		}
	}
	return nil
}

// Duration returns the span from first submit to last completion (or last
// submit when waits are unknown). Zero for an empty trace.
func (t *Trace) Duration() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	end := 0.0
	for i := range t.Jobs {
		if e := t.Jobs[i].End(); e > end {
			end = e
		}
	}
	return end - t.Jobs[0].Submit
}

// Window returns a new trace containing jobs with from <= Submit < to,
// with submit times rebased to the window start and IDs re-densified.
// The paper uses 4-month windows to align systems (Section II-B).
func (t *Trace) Window(from, to float64) *Trace {
	out := New(t.System)
	for _, j := range t.Jobs {
		if j.Submit >= from && j.Submit < to {
			j.Submit -= from
			out.Jobs = append(out.Jobs, j)
		}
	}
	for i := range out.Jobs {
		out.Jobs[i].ID = i
	}
	return out
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := New(t.System)
	out.Jobs = append([]Job(nil), t.Jobs...)
	return out
}

// Users returns the set of distinct user IDs, ascending.
func (t *Trace) Users() []int {
	seen := map[int]bool{}
	for i := range t.Jobs {
		seen[t.Jobs[i].User] = true
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// JobsByUser groups job indices by user ID.
func (t *Trace) JobsByUser() map[int][]int {
	out := map[int][]int{}
	for i := range t.Jobs {
		out[t.Jobs[i].User] = append(out[t.Jobs[i].User], i)
	}
	return out
}

// TopUsersByJobCount returns up to k user IDs ordered by descending number
// of submitted jobs (ties broken by ascending user ID), as used in the
// paper's Figure 11.
func (t *Trace) TopUsersByJobCount(k int) []int {
	counts := map[int]int{}
	for i := range t.Jobs {
		counts[t.Jobs[i].User]++
	}
	users := make([]int, 0, len(counts))
	for u := range counts {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool {
		if counts[users[a]] != counts[users[b]] {
			return counts[users[a]] > counts[users[b]]
		}
		return users[a] < users[b]
	})
	if k < len(users) {
		users = users[:k]
	}
	return users
}

// Runtimes returns the runtime of every job.
func (t *Trace) Runtimes() []float64 {
	out := make([]float64, len(t.Jobs))
	for i := range t.Jobs {
		out[i] = t.Jobs[i].Run
	}
	return out
}

// Waits returns the waiting time of every job with a known wait.
func (t *Trace) Waits() []float64 {
	out := make([]float64, 0, len(t.Jobs))
	for i := range t.Jobs {
		if t.Jobs[i].Wait >= 0 {
			out = append(out, t.Jobs[i].Wait)
		}
	}
	return out
}

// Procs returns the requested cores of every job as float64 (for stats).
func (t *Trace) Procs() []float64 {
	out := make([]float64, len(t.Jobs))
	for i := range t.Jobs {
		out[i] = float64(t.Jobs[i].Procs)
	}
	return out
}

// Submits returns the submission time of every job.
func (t *Trace) Submits() []float64 {
	out := make([]float64, len(t.Jobs))
	for i := range t.Jobs {
		out[i] = t.Jobs[i].Submit
	}
	return out
}

// ArrivalIntervals returns the deltas between consecutive submissions
// (length Len()-1) assuming submit order.
func (t *Trace) ArrivalIntervals() []float64 {
	if len(t.Jobs) < 2 {
		return nil
	}
	out := make([]float64, len(t.Jobs)-1)
	for i := 1; i < len(t.Jobs); i++ {
		out[i-1] = t.Jobs[i].Submit - t.Jobs[i-1].Submit
	}
	return out
}

// Merge overlays other's jobs onto t's system, returning a new combined
// trace sorted by submission. The other trace's user IDs are offset past
// t's to keep populations disjoint (the returned offset lets callers tell
// the origins apart), and its VC assignments are cleared (the combined
// machine is one pool). Jobs larger than t's capacity are dropped.
func (t *Trace) Merge(other *Trace) (*Trace, int) {
	out := New(t.System)
	out.Jobs = append(out.Jobs, t.Jobs...)
	offset := 0
	for _, u := range t.Users() {
		if u >= offset {
			offset = u + 1
		}
	}
	for _, j := range other.Jobs {
		if j.Procs > t.System.TotalCores {
			continue
		}
		j.User += offset
		j.VC = -1
		out.Jobs = append(out.Jobs, j)
	}
	out.SortBySubmit()
	return out, offset
}
