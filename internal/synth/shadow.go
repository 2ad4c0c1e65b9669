// Package synth generates synthetic job traces whose joint distributions are
// calibrated to the five systems the paper analyzes (Mira, Theta, Blue
// Waters, Philly, Helios). The paper's production traces are proprietary or
// impractically large; these generators encode the reported marginals and
// correlations — runtime mixtures, diurnal bursty arrivals, size
// distributions, per-user repeated job templates, runtime/size-conditioned
// failure models, and queue-pressure-adaptive submission behavior — so every
// analysis in the paper exercises the same code paths and reproduces the
// same qualitative shapes.
package synth

import (
	"math"
	"sort"
)

// shadow is a lightweight first-fit FIFO scheduler used for two purposes:
// (1) during generation it provides the queue length each simulated user
// observes at submission time (driving the paper's Figures 9-10 adaptive
// behavior), and (2) it assigns each job the waiting time a real system's
// scheduler would have recorded into the trace (Figures 3-5 read these, the
// way the paper reads recorded waits out of real traces).
//
// Capability ("large") jobs receive production-style special treatment:
// they queue ahead of ordinary jobs and, while one is blocked, the machine
// drains for it — ordinary jobs may only backfill if they finish before the
// drain's estimated completion (EASY semantics). This is what makes
// middle-size jobs, not the largest ones, wait longest (the paper's
// Figure 5 observation).
type shadow struct {
	free    int
	queue   []shadowJob
	minHeap endHeap
	// dirty marks that resources were freed since the last queue scan.
	dirty bool
	// maxQueue tracks the largest queue length seen (adaptive normalizer).
	maxQueue int
	// largeQueued counts waiting capability jobs; while positive, the
	// machine is draining and ordinary arrivals must honor drainDeadline.
	largeQueued int
	// drainDeadline is the estimated start time of the blocked capability
	// job at the front of the queue; +Inf when not draining.
	drainDeadline float64
}

// shadowJob is a queued job in the shadow scheduler.
type shadowJob struct {
	id     int
	procs  int
	run    float64
	submit float64
	// large marks special-purpose capability jobs (see shadow docs).
	large bool
}

// shadowEnd is one running job's completion.
type shadowEnd struct {
	end   float64
	procs int
}

// endHeap is a min-heap over completion times. push and pop sift exactly
// as container/heap does (same index arithmetic, same strict <), so equal
// completion times pop in container/heap's order, without boxing each
// shadowEnd in an interface.
type endHeap []shadowEnd

// push adds e.
func (h *endHeap) push(e shadowEnd) {
	q := append(*h, e)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(e.end < q[i].end) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = e
	*h = q
}

// pop removes and returns the earliest completion; h must be non-empty.
func (h *endHeap) pop() shadowEnd {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q[j+1].end < q[j].end {
			j++
		}
		if !(q[j].end < x.end) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	*h = q[:n]
	return top
}

// newShadow returns a shadow scheduler over capacity cores.
func newShadow(capacity int) *shadow {
	return &shadow{free: capacity, drainDeadline: math.Inf(1)}
}

// advance processes completions up to time now and starts eligible queued
// jobs first-fit. onStart is invoked with (id, startTime) for each started
// job.
func (s *shadow) advance(now float64, onStart func(id int, start float64)) {
	for len(s.minHeap) > 0 && s.minHeap[0].end <= now {
		e := s.minHeap.pop()
		s.free += e.procs
		s.dirty = true
		// Start jobs at the completion instant, not at now, so recorded
		// waits match an event-driven scheduler.
		s.drain(e.end, onStart)
	}
}

// shadowStart estimates when `needed` cores will be free, assuming the
// currently running jobs release at their expected ends.
func (s *shadow) shadowStart(at float64, needed int) float64 {
	if needed <= s.free {
		return at
	}
	ends := append([]shadowEnd(nil), s.minHeap...)
	sort.Slice(ends, func(a, b int) bool { return ends[a].end < ends[b].end })
	free := s.free
	for _, e := range ends {
		free += e.procs
		if free >= needed {
			return e.end
		}
	}
	if len(ends) > 0 {
		return ends[len(ends)-1].end
	}
	return at
}

// drain scans the FIFO queue first-fit, starting anything that fits; a
// blocked capability job stops ordinary starts except EASY-style backfills
// that finish before its estimated start.
func (s *shadow) drain(at float64, onStart func(id int, start float64)) {
	if !s.dirty {
		return
	}
	s.dirty = false
	s.drainDeadline = math.Inf(1)
	draining := false
	w := 0
	for i := 0; i < len(s.queue); i++ {
		j := s.queue[i]
		ok := j.procs <= s.free
		if ok && draining && !j.large {
			ok = at+j.run <= s.drainDeadline
		}
		if ok {
			s.free -= j.procs
			s.minHeap.push(shadowEnd{end: at + j.run, procs: j.procs})
			onStart(j.id, at)
			if j.large {
				s.largeQueued--
			}
			continue
		}
		s.queue[w] = j
		w++
		if s.free == 0 {
			// nothing else can start; keep the remaining tail as-is
			copy(s.queue[w:], s.queue[i+1:])
			w += len(s.queue) - i - 1
			break
		}
		if j.large && !draining {
			// The machine drains for the highest-priority blocked
			// capability job; estimate when it can start.
			draining = true
			s.drainDeadline = s.shadowStart(at, j.procs)
		}
	}
	s.queue = s.queue[:w]
	if s.largeQueued == 0 {
		s.drainDeadline = math.Inf(1)
	}
}

// submit offers a job at time now. advance(now) must be called first.
// Returns the queue length observed before this submission.
func (s *shadow) submit(j shadowJob, onStart func(id int, start float64)) int {
	observed := len(s.queue)
	fits := j.procs <= s.free
	if fits && !j.large && s.largeQueued > 0 {
		fits = j.submit+j.run <= s.drainDeadline
	}
	if fits {
		// first-fit: a fitting job may jump the queue (backfill-style),
		// within the drain deadline when a capability job is waiting.
		s.free -= j.procs
		s.minHeap.push(shadowEnd{end: j.submit + j.run, procs: j.procs})
		onStart(j.id, j.submit)
	} else if j.large {
		s.largeQueued++
		// priority insert: after existing large jobs, before the rest
		pos := 0
		for pos < len(s.queue) && s.queue[pos].large {
			pos++
		}
		s.queue = append(s.queue, shadowJob{})
		copy(s.queue[pos+1:], s.queue[pos:])
		s.queue[pos] = j
		if s.largeQueued == 1 {
			s.drainDeadline = s.shadowStart(j.submit, j.procs)
		}
	} else {
		s.queue = append(s.queue, j)
	}
	if len(s.queue) > s.maxQueue {
		s.maxQueue = len(s.queue)
	}
	return observed
}

// queueLen returns the current queue length.
func (s *shadow) queueLen() int { return len(s.queue) }

// flush drains all remaining work after the last arrival so every job gets
// a start time.
func (s *shadow) flush(onStart func(id int, start float64)) {
	for len(s.minHeap) > 0 {
		e := s.minHeap.pop()
		s.free += e.procs
		s.dirty = true
		s.drain(e.end, onStart)
	}
}
