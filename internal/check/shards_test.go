package check

import (
	"fmt"
	"reflect"
	"testing"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// verifyShardsIgnored pins that the deprecated sim.Options.Shards field
// changes nothing. The materialized run with opt.Shards = shards must equal
// the run with the field unset exactly: every row and promise, every
// aggregate, the queue timeline and the decision-event stream. For
// fault-free options (the only ones streaming accepts) the streamed run with
// the field set must also reproduce the materialized one float for float.
func verifyShardsIgnored(tr *trace.Trace, opt sim.Options, shards int) error {
	base, set := opt, opt
	base.Shards, set.Shards = 0, shards
	baseRec, setRec := &obs.Recorder{}, &obs.Recorder{}
	base.Observer, set.Observer = baseRec, setRec

	want, err := sim.Run(tr, base)
	if err != nil {
		return fmt.Errorf("check: simulator: %w", err)
	}
	got, err := sim.Run(tr, set)
	if err != nil {
		return fmt.Errorf("check: simulator with Shards=%d: %w", shards, err)
	}
	if len(got.Jobs) != len(want.Jobs) {
		return fmt.Errorf("Shards=%d: %d jobs vs %d", shards, len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		if got.Jobs[i] != want.Jobs[i] || got.PromisedStart[i] != want.PromisedStart[i] {
			return fmt.Errorf("Shards=%d: row %d %+v (promise %v) vs %+v (promise %v)",
				shards, i, got.Jobs[i], got.PromisedStart[i], want.Jobs[i], want.PromisedStart[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Shards=%d: aggregates or queue timeline differ from the unset run", shards)
	}
	if !reflect.DeepEqual(setRec.Events, baseRec.Events) {
		return fmt.Errorf("Shards=%d: decision events differ from the unset run (%d vs %d events)",
			shards, len(setRec.Events), len(baseRec.Events))
	}
	if opt.Faults.Enabled() {
		return nil
	}
	return VerifyStream(tr, set)
}

// TestShardedDifferentialSweep: for every policy x backfill combination,
// setting the deprecated Shards field — below, at and above the partition
// count — must leave the materialized and streamed runs identical to the
// run with the field unset.
func TestShardedDifferentialSweep(t *testing.T) {
	days := 0.5
	if testing.Short() {
		days = 0.2
	}
	profiles := []*synth.Profile{synth.VerifyVC(days), verifyVCWide(days)}
	for _, p := range profiles {
		p := p
		t.Run(p.Sys.Name, func(t *testing.T) {
			t.Parallel()
			tr := verifyTrace(t, p, 7)
			nParts := tr.System.VirtualClusters
			for _, shards := range []int{2, 3, nParts, nParts + 5} {
				for _, opt := range Combos(0.15) {
					if err := verifyShardsIgnored(tr, opt, shards); err != nil {
						t.Errorf("%s + %s: %v", opt.Policy, opt.Backfill, err)
					}
				}
			}
		})
	}
}

// TestShardedOptionVariants covers option axes the sweep holds fixed:
// oracle runtimes, a fixed-normalizer adaptive config under a dynamic
// policy, and conservative backfill under F3.
func TestShardedOptionVariants(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyVC(0.3), 11)
	variants := []struct {
		name string
		opt  sim.Options
	}{
		{"oracle-runtime", sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, UseActualRuntime: true}},
		{"adaptive-fixed-maxq", sim.Options{Policy: sim.SJF, Backfill: sim.AdaptiveRelaxed,
			RelaxFactor: 0.2, MaxQueueLen: 12}},
		{"conservative-f3", sim.Options{Policy: sim.F3, Backfill: sim.Conservative}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			if err := verifyShardsIgnored(tr, v.opt, 3); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestShardedFallbackPins: configurations with cross-partition coupling —
// fair share, faults, a global queue normalizer, caller-supplied score and
// predictor functions, and a single-partition system — must also run
// unchanged when Shards is set.
func TestShardedFallbackPins(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyVC(0.2), 9)
	single := verifyTrace(t, synth.VerifyHPC(0.2), 9)
	flt, err := fault.ParseSpec("mtbf=20000,mttr=4000,frac=0.2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tr   *trace.Trace
		opt  sim.Options
	}{
		{"fair-share", tr, sim.Options{Policy: sim.Fair, Backfill: sim.EASY}},
		{"faults", tr, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, Faults: flt}},
		{"adaptive-global-queue", tr, sim.Options{Policy: sim.FCFS, Backfill: sim.AdaptiveRelaxed, RelaxFactor: 0.2}},
		{"custom-score", tr, sim.Options{Backfill: sim.EASY,
			CustomScore: func(reqTime float64, procs int, submit, now float64) float64 {
				return reqTime * float64(procs)
			}}},
		{"walltime-predictor", tr, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY,
			WalltimePredictor: func(j trace.Job) float64 { return j.Run*1.2 + 60 }}},
		{"single-partition", single, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := verifyShardsIgnored(c.tr, c.opt, 4); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzShardedSim peels one byte for a Shards value (1..8, above the
// partition counts decodeFuzzInput can produce) and feeds the rest through
// FuzzSimulator's decoder; the run with Shards set must reproduce the run
// with it unset, materialized and streamed, whatever the input.
func FuzzShardedSim(f *testing.F) {
	// FuzzSimulator's seeds, each prefixed with a shard byte.
	f.Add(append([]byte{0}, []byte{0, 1, 0, 6, 10, 0, 3, 9, 8, 2, 0, 40, 1, 4, 4, 3, 0, 0, 0, 20, 20, 1, 1, 9}...))
	f.Add(append([]byte{2}, []byte{1, 3, 2, 4, 20, 1, 5, 12, 12, 7, 2, 30, 0, 0, 0, 4, 1, 0, 9, 30, 3, 2, 0, 64}...))
	f.Add(append([]byte{7}, []byte{8, 4, 1, 8, 10, 2, 2, 16, 16, 1, 0, 16, 2, 8, 8, 5, 0, 32, 1, 1, 1, 0, 0, 0}...))
	f.Add(append([]byte{3}, []byte{3, 2, 0, 2, 0, 3, 0, 255, 255, 13, 1, 1, 0, 0, 200, 2, 0, 5}...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		shards := 1 + int(data[0])%8
		tr, opt := decodeFuzzInput(data[1:])
		if tr == nil {
			return
		}
		if err := verifyShardsIgnored(tr, opt, shards); err != nil {
			t.Fatalf("%s + %s on %d jobs: %v", opt.Policy, opt.Backfill, tr.Len(), err)
		}
	})
}
