package crosssched

import (
	"context"
	"testing"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// TestWorkCounters pins the simulator's exact work counters (obs.Metrics)
// on fixed seeds. Scheduling output is pinned elsewhere; these pin how much
// work the event loop does to produce it — events, schedule passes, score
// sorts, conservative-plan reuse, the streaming window's peak — so a change
// meant only to move data (a new arena, a cheaper copy) provably does the
// same scheduling work, and a change that adds passes shows up as a diff
// rather than as noise in a timing.
func TestWorkCounters(t *testing.T) {
	theta := generate(t, "Theta", 8, 7)
	faults := &fault.Config{
		Seed: 13, MTBF: 20000, MTTR: 4000, OutageFrac: 0.25, InterruptProb: 0.02,
		Recovery: fault.RecoveryRequeue, RetryCap: 3,
	}
	ckptFaults := &fault.Config{
		Seed: 5, MTBF: 30000, MTTR: 3000, OutageFrac: 0.2, InterruptProb: 0.05,
		Recovery: fault.RecoveryCheckpoint, CheckpointInterval: 600, RetryCap: 1,
	}
	easy := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}
	for _, c := range []struct {
		name   string
		tr     *trace.Trace
		opt    sim.Options
		stream bool
		want   obs.Metrics
	}{
		{"Theta8/FCFS+EASY", theta, easy, false, obs.Metrics{Events: 4420, Arrivals: 2210, Completions: 2210, SchedulePasses: 4420, JobsStarted: 2210, Backfilled: 1914}},
		{"Theta8/FCFS+EASY/stream", theta, easy, true, obs.Metrics{Events: 4420, Arrivals: 2210, Completions: 2210, SchedulePasses: 4420, JobsStarted: 2210, Backfilled: 1914, MaxWindowJobs: 583, JobsRetired: 2210}},
		{"Theta8/SJF+Conservative", theta, sim.Options{Policy: sim.SJF, Backfill: sim.Conservative}, false, obs.Metrics{Events: 4420, Arrivals: 2210, Completions: 2210, SchedulePasses: 4420, JobsStarted: 2210, Backfilled: 217, Violations: 139, ConsPasses: 3470, ConsKeptJobs: 3215, ConsPlannedJobs: 14666}},
		{"Theta8/WFP3+Relaxed/stream", theta, sim.Options{Policy: sim.WFP3, Backfill: sim.Relaxed}, true, obs.Metrics{Events: 4420, Arrivals: 2210, Completions: 2210, SchedulePasses: 4420, ScoreSorts: 4411, ScoreCacheHits: 2194, JobsStarted: 2210, Backfilled: 1754, Violations: 65, MaxWindowJobs: 1167, JobsRetired: 2210}},
		{"Theta8/FCFS+Conservative/faults", theta, sim.Options{Policy: sim.FCFS, Backfill: sim.Conservative, Faults: faults}, false, obs.Metrics{Events: 4522, Arrivals: 2210, Completions: 2210, SchedulePasses: 4522, JobsStarted: 2210, Backfilled: 1921, Violations: 12, ConsPasses: 2430, ConsPlannedJobs: 117559, CapacityFaults: 66, Interrupts: 126, Requeues: 126}},
		{"Theta8/SJF+EASY/checkpoint-faults", theta, sim.Options{Policy: sim.SJF, Backfill: sim.EASY, Faults: ckptFaults}, false, obs.Metrics{Events: 4568, Arrivals: 2210, Completions: 2205, SchedulePasses: 4568, JobsStarted: 2210, Backfilled: 254, Violations: 123, CapacityFaults: 40, Interrupts: 142, Requeues: 137, FaultFailed: 5}},
		{"Helios10/FCFS+EASY/stream", generate(t, "Helios", 10, 1), easy, true, obs.Metrics{Events: 136858, Arrivals: 68467, Completions: 68467, SchedulePasses: 136858, JobsStarted: 68467, Backfilled: 33557, MaxWindowJobs: 68374, JobsRetired: 68467}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got obs.Metrics
			opt := c.opt
			opt.Metrics = &got
			var err error
			if c.stream {
				_, err = sim.NewRunner().RunStreamContext(context.Background(), trace.NewSliceStream(c.tr), opt, nil)
			} else {
				_, err = sim.NewRunner().RunContext(context.Background(), c.tr, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			got.WallSeconds = 0
			if got != c.want {
				t.Errorf("counters changed:\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

func generate(t *testing.T, system string, days float64, seed uint64) *trace.Trace {
	t.Helper()
	p, err := synth.ByName(system, days)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
