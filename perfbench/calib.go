package main

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The shared host's speed drifts by a third within minutes: noisy
// neighbours slow every program on it, and CPU time goes up with wall
// time. To cancel that drift, the benchmark runs a fixed calibration
// kernel as a child process next to each measured program run and scales
// the run's CPU time to the reference host: the one on which the kernel
// takes calibRef of CPU time. The kernel is part of the benchmark, not of
// the program, so a change to the program moves the scaled figures as much
// as the raw ones. It must not change once results have been recorded.

// calibRef is the calibration kernel's CPU time on the reference host.
const calibRef = 100 * time.Millisecond

// calibrateMain is the kernel, run as `perfbench calibrate`: the kind of
// work the measured programs do (formatting and parsing numeric text
// lines, sorting, a priority queue, map counting, and scattered reads and
// writes over a working set the size of a simulator's), fixed in size.
func calibrateMain() int {
	rng := rand.New(rand.NewPCG(0xca11b, 1))
	var sink int
	type slot struct {
		key  uint64
		next int32
		val  float64
	}
	table := make([]slot, 1<<20) // 24 MiB
	for i := range table {
		table[i] = slot{key: rng.Uint64(), next: int32(rng.IntN(len(table)))}
	}
	at := int32(0)
	for step := 0; step < 1<<20; step++ {
		s := &table[at]
		s.val += float64(s.key & 0xff)
		at = s.next
		table[(s.key>>20)&(1<<20-1)].key ^= s.key
	}
	sink += int(at)
	for round := 0; round < 3; round++ {
		lines := make([]string, 0, 8000)
		var b []byte
		for i := 0; i < cap(lines); i++ {
			b = strconv.AppendInt(b[:0], int64(i), 10)
			for f := 0; f < 6; f++ {
				b = append(b, ' ')
				b = strconv.AppendFloat(b, rng.ExpFloat64()*3600, 'f', 2, 64)
			}
			lines = append(lines, string(b))
		}
		rows := make([][6]float64, len(lines))
		for i, l := range lines {
			for f, s := range strings.Fields(l)[1:] {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					fmt.Fprintln(os.Stderr, "calibrate:", err)
					return 1
				}
				rows[i][f] = v
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
		q := &floatHeap{}
		counts := map[int]int{}
		for _, row := range rows {
			heap.Push(q, row[0]+row[1])
			for q.Len() > 64 {
				counts[int(heap.Pop(q).(float64))/60]++
			}
		}
		sink += len(counts)
	}
	if sink == 0 {
		return 1
	}
	return 0
}

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calibrate runs the kernel once as a child process and returns the host's
// slowdown against the reference host: the kernel's CPU time over
// calibRef. Dividing a measured CPU time by it scales the time to the
// reference host.
func (r *run) calibrate() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "calibrate")
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("calibration kernel: %w: %s", err, strings.TrimSpace(string(out)))
	}
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	r.calib.addDur(cpu)
	return float64(cpu) / float64(calibRef), nil
}
