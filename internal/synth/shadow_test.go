package synth

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refEndHeap is endHeap as a container/heap.Interface, the reference its
// typed push and pop must match.
type refEndHeap []shadowEnd

func (h refEndHeap) Len() int           { return len(h) }
func (h refEndHeap) Less(i, j int) bool { return h[i].end < h[j].end }
func (h refEndHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refEndHeap) Push(x any)        { *h = append(*h, x.(shadowEnd)) }
func (h *refEndHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestEndHeapMatchesContainerHeap runs random push/pop tapes through
// endHeap and container/heap side by side. Completion times come from a
// handful of values, so most comparisons are ties; each entry carries a
// unique procs tag, so the two heaps must agree on which of the tied
// entries pops, and on the whole array layout after every step. The
// shadow's first-fit decisions and recorded waits depend on that order.
func TestEndHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for tape := 0; tape < 300; tape++ {
		var got endHeap
		var want refEndHeap
		distinct := 1 + rng.Intn(6)
		pushBias := 0.3 + 0.5*rng.Float64()
		for step := 0; step < 400; step++ {
			if len(want) == 0 || rng.Float64() < pushBias {
				e := shadowEnd{end: float64(rng.Intn(distinct)), procs: step}
				got.push(e)
				heap.Push(&want, e)
			} else {
				g, w := got.pop(), heap.Pop(&want).(shadowEnd)
				if g != w {
					t.Fatalf("tape %d step %d: pop %+v, container/heap pops %+v", tape, step, g, w)
				}
			}
			if !slices.Equal(got, endHeap(want)) {
				t.Fatalf("tape %d step %d: heap %v, container/heap %v", tape, step, got, want)
			}
		}
	}
}
