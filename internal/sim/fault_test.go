package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// recordedRun runs tr under opt with a recorder attached and returns the
// result plus the decision-event stream.
func recordedRun(t *testing.T, tr *trace.Trace, opt Options) (*Result, []obs.Event) {
	t.Helper()
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Events
}

// TestZeroFaultIdentity pins the pay-for-what-you-use contract: with fault
// injection disabled — whether by a nil config or a zero config — the
// Result AND the decision stream must be bit-identical to a run without the
// fault layer, for every policy x backfill combination.
func TestZeroFaultIdentity(t *testing.T) {
	tr := randomTrace(42, 250, 64)
	for _, pol := range Policies {
		for _, bf := range Backfills {
			base := Options{Policy: pol, Backfill: bf, RelaxFactor: 0.12}
			want, wantEvents := recordedRun(t, tr, base)

			disabled := base
			disabled.Faults = &fault.Config{} // zero config: Enabled() == false
			got, gotEvents := recordedRun(t, tr, disabled)

			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%v: Result differs with a disabled fault config", pol, bf)
			}
			if !reflect.DeepEqual(gotEvents, wantEvents) {
				t.Errorf("%v/%v: decision stream differs with a disabled fault config", pol, bf)
			}
		}
	}
}

// TestRequeueCapProperty is the retry-cap property test: under requeue
// recovery no job is ever requeued more than the cap, interrupts and
// requeues pair up (at most one terminal interrupt per job), and a job
// whose retries are exhausted leaves the system as Failed.
func TestRequeueCapProperty(t *testing.T) {
	tr := randomTrace(7, 300, 64)
	for _, cap := range []int{0, 1, 2} {
		cfg := &fault.Config{
			Seed: 3, InterruptProb: 0.3,
			Recovery: fault.RecoveryRequeue, RetryCap: cap,
		}
		res, events := recordedRun(t, tr, Options{Policy: FCFS, Backfill: EASY, Faults: cfg})

		interrupts := make(map[int]int)
		requeues := make(map[int]int)
		starts := make(map[int]int)
		for _, e := range events {
			switch e.Kind {
			case obs.JobStart:
				starts[e.Job]++
			case obs.FaultJobInterrupt:
				interrupts[e.Job]++
			case obs.FaultJobRequeue:
				requeues[e.Job]++
			}
		}
		if len(interrupts) == 0 {
			t.Fatalf("cap %d: no interrupts; property test is vacuous", cap)
		}
		dead := 0
		for id, n := range requeues {
			if n > cap {
				t.Errorf("cap %d: job %d requeued %d times", cap, id, n)
			}
		}
		for id, n := range interrupts {
			if d := n - requeues[id]; d != 0 && d != 1 {
				t.Errorf("cap %d: job %d has %d interrupts but %d requeues", cap, id, n, requeues[id])
			} else if d == 1 {
				dead++
				if requeues[id] != cap {
					t.Errorf("cap %d: job %d failed terminally after %d requeues", cap, id, requeues[id])
				}
			}
		}
		byID := make(map[int]int, tr.Len())
		for i, j := range tr.Jobs {
			byID[j.ID] = i
		}
		for id, n := range starts {
			if n > cap+1 {
				t.Errorf("cap %d: job %d started %d times (max %d)", cap, id, n, cap+1)
			}
			if in, rq := interrupts[id], requeues[id]; in > rq {
				if st := res.Jobs[byID[id]].Status; st != trace.Failed {
					t.Errorf("cap %d: exhausted job %d has status %v, want Failed", cap, id, st)
				}
			}
		}
		if res.FaultFailed != dead {
			t.Errorf("cap %d: result reports %d fault-failed jobs, stream shows %d", cap, res.FaultFailed, dead)
		}
		if res.Requeued > 0 && cap == 0 {
			t.Errorf("cap 0: %d requeues", res.Requeued)
		}
	}
}

// TestRunnerPoolReuseWithFaults exercises pooled Runner reuse under fault
// injection, concurrently (run with -race): every reused run must match a
// fresh sim.Run bit-for-bit, including after alternating fault and
// zero-fault runs on the same Runner.
func TestRunnerPoolReuseWithFaults(t *testing.T) {
	tr := randomTrace(21, 200, 64)
	cfg := &fault.Config{
		Seed: 5, MTBF: 3000, MTTR: 800, OutageFrac: 0.4, InterruptProb: 0.1,
		Recovery: fault.RecoveryCheckpoint, RetryCap: 2, CheckpointInterval: 120,
	}
	faultOpt := Options{Policy: SJF, Backfill: EASY, Faults: cfg}
	plainOpt := Options{Policy: SJF, Backfill: EASY}
	wantFault, err := Run(tr, faultOpt)
	if err != nil {
		t.Fatal(err)
	}
	wantPlain, err := Run(tr, plainOpt)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewRunner()
			for i := 0; i < 6; i++ {
				// Alternate fault and plain runs so leftover fault state
				// from a previous run would be caught immediately.
				opt, want := faultOpt, wantFault
				if i%2 == 1 {
					opt, want = plainOpt, wantPlain
				}
				got, err := r.RunContext(context.Background(), tr, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("run %d: pooled result diverges from fresh run", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestZeroFaultNoExtraAllocs guards the acceptance criterion that the
// disabled fault path adds no allocations to the EASY hot loop: a pooled
// run with a disabled config must allocate exactly as much as one without
// the fault layer.
func TestZeroFaultNoExtraAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	tr := randomTrace(11, 200, 64)
	r := NewRunner()
	measure := func(opt Options) float64 {
		// Warm the pool so steady-state allocations are measured.
		if _, err := r.RunContext(context.Background(), tr, opt); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := r.RunContext(context.Background(), tr, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := measure(Options{Policy: FCFS, Backfill: EASY})
	disabled := measure(Options{Policy: FCFS, Backfill: EASY, Faults: &fault.Config{}})
	if disabled > plain {
		t.Errorf("disabled fault config allocates %v/run vs %v/run without the fault layer", disabled, plain)
	}
}
