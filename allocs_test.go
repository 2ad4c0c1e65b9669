package crosssched

import (
	"testing"

	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// TestHotPathAllocs pins the allocation counts of the simulator's hot
// paths on BenchmarkSimulatorEASY's workload (8 congested Theta days): a
// pooled sim.Run allocates only its Result, the streamed run on the same
// trace even less, and a streamed run on a fresh Runner only its working
// set (window pages, in-flight arena, queues), once. A new allocation per job or per scheduling pass
// shows up here as thousands per run. The counts are exact, so unlike a
// timing comparison they need no quiet host.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled Runners at random")
	}
	p, err := synth.ByName("Theta", 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}
	sink := func(sim.StreamRow) error { return nil }
	for _, c := range []struct {
		name string
		want float64
		runs int
		run  func() error
	}{
		{"Run", 4, 100, func() error { _, err := sim.Run(tr, opt); return err }},
		{"RunStream", 3, 100, func() error { _, err := sim.RunStream(trace.NewSliceStream(tr), opt, sink); return err }},
		// A fresh Runner per run, as one schedsim -stream process pays:
		// window pages, arena and queue growth included.
		{"RunStream/cold", 75, 5, func() error {
			_, err := sim.NewRunner().RunStream(trace.NewSliceStream(tr), opt, sink)
			return err
		}},
	} {
		if err := c.run(); err != nil { // warm the Runner pool
			t.Fatal(err)
		}
		var runErr error
		got := testing.AllocsPerRun(c.runs, func() {
			if err := c.run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if got != c.want {
			t.Errorf("%s: %v allocs/run, want %v", c.name, got, c.want)
		}
	}
}
