package check

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
)

// TestRunnerReuseMatchesFresh is the identity property behind sim.Runner's
// scratch reuse: a single Runner driven through every policy x backfill
// combination must produce, for each combination, a Result and decision
// stream float-for-float identical to a brand-new Runner's (and to the
// package-level sim.Run, which draws from the shared pool). Any stale state
// leaking across runs — queue buffers, profile caches, scan stamps, fair
// accounts, cluster occupancy — shows up as a diff here.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.2), 17)
	reused := sim.NewRunner()
	for _, opt := range Combos(0.15) {
		opt := opt
		var gotRec, wantRec obs.Recorder

		optGot := opt
		optGot.Observer = &gotRec
		got, err := reused.RunContext(context.Background(), tr, optGot)
		if err != nil {
			t.Fatalf("%s + %s: reused runner: %v", opt.Policy, opt.Backfill, err)
		}

		optWant := opt
		optWant.Observer = &wantRec
		want, err := sim.NewRunner().RunContext(context.Background(), tr, optWant)
		if err != nil {
			t.Fatalf("%s + %s: fresh runner: %v", opt.Policy, opt.Backfill, err)
		}

		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s + %s: reused runner Result differs from fresh runner", opt.Policy, opt.Backfill)
		}
		if !reflect.DeepEqual(gotRec.Events, wantRec.Events) {
			t.Errorf("%s + %s: reused runner decision stream differs from fresh runner (%d vs %d events)",
				opt.Policy, opt.Backfill, len(gotRec.Events), len(wantRec.Events))
		}

		// The package-level entry points draw warm Runners from the pool;
		// they must be indistinguishable from a fresh run too.
		pooled, err := sim.Run(tr, opt)
		if err != nil {
			t.Fatalf("%s + %s: pooled run: %v", opt.Policy, opt.Backfill, err)
		}
		if !reflect.DeepEqual(pooled, want) {
			t.Errorf("%s + %s: pooled sim.Run Result differs from fresh runner", opt.Policy, opt.Backfill)
		}
	}
}

// TestRunnerPoolConcurrency hammers the shared runner pool from many
// goroutines at once (run under -race by the CI race job): every concurrent
// sim.Run on the same trace must return the same Result as a sequential
// reference run. This is the exact access pattern of internal/par sweep
// workers.
func TestRunnerPoolConcurrency(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyVC(0.15), 23)
	opt := sim.Options{Policy: sim.SJF, Backfill: sim.Relaxed, RelaxFactor: 0.15}
	want, err := sim.NewRunner().RunContext(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const runsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				got, err := sim.Run(tr, opt)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent pooled run diverged from sequential reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// cancelAfter is an observer that cancels a context after n events — a way
// to abandon a run at a precise mid-run point, with scratch state (queues,
// heaps, caches, partially-built profiles) live and dirty.
type cancelAfter struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Observe(obs.Event) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

// TestRunnerReuseAfterCancel is the poisoned-scratch regression test: a
// Runner abandoned mid-run by context cancellation — at several different
// depths, so different amounts of dirty state are left behind — must
// produce bit-identical results when reused, because the reset happens on
// acquire, not on release.
func TestRunnerReuseAfterCancel(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyBurst(0.2), 31)
	opt := sim.Options{Policy: sim.WFP3, Backfill: sim.AdaptiveRelaxed, RelaxFactor: 0.2}
	want, err := sim.NewRunner().RunContext(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}

	r := sim.NewRunner()
	for _, depth := range []int{1, 7, 50, 400} {
		ctx, cancel := context.WithCancel(context.Background())
		co := opt
		co.Observer = &cancelAfter{n: depth, cancel: cancel}
		var met obs.Metrics
		co.Metrics = &met
		if _, err := r.RunContext(ctx, tr, co); err == nil {
			// The trace outlives the cancellation depth comfortably; a nil
			// error would mean the cancel never fired mid-run.
			t.Fatalf("cancel after %d events: run completed instead of aborting", depth)
		}
		if !met.Canceled {
			t.Errorf("cancel after %d events: metrics not marked canceled", depth)
		}
		cancel()

		got, err := r.RunContext(context.Background(), tr, opt)
		if err != nil {
			t.Fatalf("reuse after cancel at depth %d: %v", depth, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reuse after cancel at depth %d: Result differs from fresh run", depth)
		}
	}
}
