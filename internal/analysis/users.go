package analysis

import (
	"math"
	"sort"

	"crosssched/internal/stats"
	"crosssched/internal/trace"
)

// UserGroups is the Figure 8 data: how much of each user's submissions are
// covered by their top-k resource-configuration groups, averaged over the
// heaviest users. Coverage[k-1] is cumulative through the k-th group.
type UserGroups struct {
	System   string
	Coverage []float64 // cumulative coverage through group 1..K
	Users    int       // users included in the average
}

// AnalyzeUserGroups computes Figure 8 for the top maxUsers users with at
// least minJobs submissions, using the paper's grouping rule: identical
// requested cores, runtimes within 10% of the group mean.
func AnalyzeUserGroups(tr *trace.Trace, topK, maxUsers, minJobs int) UserGroups {
	out := UserGroups{System: tr.System.Name, Coverage: make([]float64, topK)}
	byUser := tr.JobsByUser()
	users := tr.TopUsersByJobCount(maxUsers)
	counted := 0
	for _, u := range users {
		idxs := byUser[u]
		if len(idxs) < minJobs {
			continue
		}
		sizes := userGroupSizes(tr, idxs)
		sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
		cum := 0
		for k := 0; k < topK; k++ {
			if k < len(sizes) {
				cum += sizes[k]
			}
			out.Coverage[k] += float64(cum) / float64(len(idxs))
		}
		counted++
	}
	if counted > 0 {
		for k := range out.Coverage {
			out.Coverage[k] /= float64(counted)
		}
	}
	out.Users = counted
	return out
}

// userGroupSizes clusters one user's jobs into resource-configuration
// groups (exact procs; runtime within 10% of the group's running mean).
func userGroupSizes(tr *trace.Trace, idxs []int) []int {
	byProcs := map[int][]float64{}
	for _, i := range idxs {
		byProcs[tr.Jobs[i].Procs] = append(byProcs[tr.Jobs[i].Procs], tr.Jobs[i].Run)
	}
	var sizes []int
	for _, runs := range byProcs {
		sort.Float64s(runs)
		i := 0
		for i < len(runs) {
			mean := runs[i]
			n := 1
			j := i + 1
			for j < len(runs) && math.Abs(runs[j]-mean) <= 0.1*mean {
				mean = (mean*float64(n) + runs[j]) / float64(n+1)
				n++
				j++
			}
			sizes = append(sizes, n)
			i = j
		}
	}
	return sizes
}

// QueueLengths reconstructs the queue length observed at each submission
// from the recorded waits: the number of jobs submitted earlier that had
// not yet started. Requires waits to be present (>= 0).
func QueueLengths(tr *trace.Trace) []int {
	starts := make([]float64, 0, 64)
	out := make([]int, tr.Len())
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		w := 0
		for _, s := range starts {
			if s > j.Submit {
				starts[w] = s
				w++
			}
		}
		starts = starts[:w]
		out[i] = len(starts)
		starts = append(starts, j.Start())
	}
	return out
}

// QueueBucket indexes the paper's queue-pressure classes (Figure 9):
// short (<Q/3), middle (Q/3..2Q/3), long (>2Q/3) where Q is the maximum
// observed queue length.
type QueueBucket int

// Queue bucket order: Short, Middle, Long.
const (
	QueueShort QueueBucket = iota
	QueueMiddle
	QueueLong
)

// QueueBehavior is the Figures 9-10 data: per queue bucket, the request
// size composition (including the "Minimal" class) and runtime statistics.
type QueueBehavior struct {
	System   string
	MaxQueue int
	// SizeShare[b] = [minimal, small, middle, large] request shares in
	// queue bucket b. "Minimal" jobs (1 core/GPU) are excluded from the
	// small class to match the paper's fourth category.
	SizeShare [3][4]float64
	// MedianRuntime[b] is the median runtime submitted in bucket b;
	// MinimalRuntimeShare[b] is the share of sub-minute jobs.
	MedianRuntime       [3]float64
	MinimalRuntimeShare [3]float64
	// Counts per bucket.
	Counts [3]int
}

// AnalyzeQueueBehavior computes Figures 9-10 for a trace with waits.
func AnalyzeQueueBehavior(tr *trace.Trace) QueueBehavior {
	out := QueueBehavior{System: tr.System.Name}
	if tr.Len() == 0 {
		return out
	}
	q := QueueLengths(tr)
	maxQ := 0
	for _, v := range q {
		if v > maxQ {
			maxQ = v
		}
	}
	out.MaxQueue = maxQ
	if maxQ == 0 {
		// no queueing at all: everything lands in the short bucket
		maxQ = 1
	}
	minimal := MinimalProcs(tr)
	var runs [3][]float64
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		b := QueueShort
		frac := float64(q[i]) / float64(maxQ)
		switch {
		case frac > 2.0/3:
			b = QueueLong
		case frac > 1.0/3:
			b = QueueMiddle
		}
		out.Counts[b]++
		if j.Procs == minimal {
			out.SizeShare[b][0]++
		} else {
			out.SizeShare[b][int(ClassifySize(tr.System, j.Procs))+1]++
		}
		runs[b] = append(runs[b], j.Run)
		if j.Run <= 60 {
			out.MinimalRuntimeShare[b]++
		}
	}
	for b := 0; b < 3; b++ {
		if out.Counts[b] > 0 {
			n := float64(out.Counts[b])
			for c := 0; c < 4; c++ {
				out.SizeShare[b][c] /= n
			}
			out.MinimalRuntimeShare[b] /= n
		}
		out.MedianRuntime[b] = stats.Median(runs[b])
	}
	return out
}

// UserStatusRuntimes is the Figure 11 data: per heavy user, the runtime
// distribution split by final job status.
type UserStatusRuntimes struct {
	System string
	Users  []UserStatusProfile
}

// UserStatusProfile is one user's runtime-by-status summary.
type UserStatusProfile struct {
	User    int
	Jobs    int
	Violins [3]stats.Violin // indexed by trace.Status
	Medians [3]float64
	Counts  [3]int
}

// AnalyzeUserStatusRuntimes computes Figure 11 for the topK heaviest users.
func AnalyzeUserStatusRuntimes(tr *trace.Trace, topK int) UserStatusRuntimes {
	out := UserStatusRuntimes{System: tr.System.Name}
	byUser := tr.JobsByUser()
	for _, u := range tr.TopUsersByJobCount(topK) {
		prof := UserStatusProfile{User: u}
		var runs [3][]float64
		for _, i := range byUser[u] {
			j := &tr.Jobs[i]
			runs[j.Status] = append(runs[j.Status], j.Run)
			prof.Jobs++
		}
		for st := 0; st < 3; st++ {
			prof.Violins[st] = stats.NewViolin(runs[st], 80, true)
			prof.Medians[st] = stats.Median(runs[st])
			prof.Counts[st] = len(runs[st])
		}
		out.Users = append(out.Users, prof)
	}
	return out
}

// StatusSeparation quantifies how distinguishable a user's runtime
// distributions are across final statuses: the widest pairwise |log-median
// gap| in decades (typically Failed-vs-Passed — failures die early). Large
// separations are what make elapsed-time prediction work (Section VI-A).
func (p UserStatusProfile) StatusSeparation() float64 {
	best := 0.0
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			ma, mb := p.Medians[a], p.Medians[b]
			if ma <= 0 || mb <= 0 {
				continue
			}
			if gap := math.Abs(math.Log10(ma) - math.Log10(mb)); gap > best {
				best = gap
			}
		}
	}
	return best
}
