package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"crosssched/internal/obs"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// The tests in this file install the global SetConsPlanAudit hook and must
// therefore never call t.Parallel: the hook would race with any concurrent
// conservative simulation in the same process.

// consReplay collects contract violations reported by the from-scratch
// replay hook. The hook may fire from the one simulation the owning test
// runs; the mutex guards against future parallel callers all the same.
type consReplay struct {
	mu     sync.Mutex
	passes int
	kept   int64
	errs   []string
}

func (c *consReplay) errorf(format string, args ...interface{}) {
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// installConsReplay registers an audit hook that replans every audited pass
// from scratch — the original O(n²) algorithm: walk the queue in priority
// order, place each job at its earliest start on a scratch profile, reserve
// it, continue — and asserts the maintained plan is the exact prefix of
// that plan. Positions past the maintained prefix (the planning loop
// early-stopped) must not be startable now, since only starts at now are
// observable. Float comparisons are exact: the incremental planner must be
// bit-identical, not merely close.
func installConsReplay(t *testing.T) *consReplay {
	t.Helper()
	c := &consReplay{}
	SetConsPlanAudit(func(a ConsPlanAudit) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.passes++
		c.kept += int64(a.Kept)
		ref := &profile{
			times: append([]float64(nil), a.BaseTimes...),
			free:  append([]int(nil), a.BaseFree...),
		}
		for pos := 0; pos < len(a.Procs); pos++ {
			st, _, _ := ref.earliestStart(a.Now, a.Procs[pos], a.ReqTime[pos])
			ref.reserve(st, a.ReqTime[pos], a.Procs[pos])
			if pos < len(a.Starts) {
				if st != a.Starts[pos] {
					c.errorf("part %d t=%v pos %d (kept %d, persistent %v): plan start %v, from-scratch start %v",
						a.Part, a.Now, pos, a.Kept, a.Persistent, a.Starts[pos], st)
				}
			} else if st <= a.Now+1e-9 {
				c.errorf("part %d t=%v pos %d: unplanned job could start now (from-scratch start %v)",
					a.Part, a.Now, pos, st)
			}
		}
	})
	t.Cleanup(func() { SetConsPlanAudit(nil) })
	return c
}

func (c *consReplay) report(t *testing.T, label string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.errs {
		t.Errorf("%s: %s", label, e)
	}
	if c.passes == 0 {
		t.Errorf("%s: audit hook never fired; property test is vacuous", label)
	}
}

// consPlanVariants are the option axes the property tests sweep: static
// arrival order, static priority orders, a dynamic order (fairshare decay
// disables plan persistence — the pass must then behave like the
// from-scratch planner), perfect estimates, and advisory predictions (which
// let jobs overrun their planned ends, forcing plan invalidation).
func consPlanVariants() []struct {
	name string
	opt  Options
} {
	return []struct {
		name string
		opt  Options
	}{
		{"fcfs", Options{Policy: FCFS, Backfill: Conservative}},
		{"sjf", Options{Policy: SJF, Backfill: Conservative}},
		{"ljf", Options{Policy: LJF, Backfill: Conservative}},
		{"fair", Options{Policy: Fair, Backfill: Conservative, FairshareHalfLife: 3600}},
		{"fcfs-oracle-runtime", Options{Policy: FCFS, Backfill: Conservative, UseActualRuntime: true}},
		{"fcfs-predictor", Options{Policy: FCFS, Backfill: Conservative,
			WalltimePredictor: func(j trace.Job) float64 { return j.Run*0.8 + 120 }}},
	}
}

// TestConsPlanMatchesFromScratchOnStress replays every planning pass of the
// conservative stress workloads from scratch and demands exact agreement.
// The stress profiles quantize submits to whole seconds (tie-heavy arrival
// batches) and overestimate walltimes (every completion opens a hole under
// kept reservations), which is precisely where an incremental plan could
// drift from the from-scratch one.
func TestConsPlanMatchesFromScratchOnStress(t *testing.T) {
	days := 0.15
	if testing.Short() {
		days = 0.08
	}
	for _, p := range synth.VerifyConsProfiles(days) {
		tr, err := p.Generate(7)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Sys.Name, err)
		}
		for i := range tr.Jobs {
			tr.Jobs[i].Wait = -1
		}
		for _, v := range consPlanVariants() {
			label := p.Sys.Name + "/" + v.name
			c := installConsReplay(t)
			if _, err := Run(tr, v.opt); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			c.report(t, label)
			SetConsPlanAudit(nil)
		}
	}
}

// randomConsTrace generates a small adversarial workload directly: bursty
// quantized submits with exact ties, zero-runtime jobs, missing walltimes,
// and heavy overestimates, across one or two partitions.
func randomConsTrace(r *rand.Rand, cores, parts, n int) *trace.Trace {
	sys := trace.System{Name: "randcons", TotalCores: cores, VirtualClusters: parts}
	tr := trace.New(sys)
	capPerPart := cores
	if parts > 1 {
		capPerPart = cores / parts
	}
	now := 0.0
	for i := 0; i < n; i++ {
		if r.Float64() < 0.6 { // else: exact submit tie with the previous job
			now += math.Floor(r.ExpFloat64() * 45)
		}
		run := math.Floor(r.Float64() * 4000)
		if r.Intn(8) == 0 {
			run = 0
		}
		wall := 0.0
		switch r.Intn(4) {
		case 0: // no walltime: planner falls back to actual runtime
		case 1:
			wall = run + 1 // near-exact estimate
		default:
			wall = run*(1+4*r.Float64()) + 1 // overestimate up to 5x
		}
		vc := -1
		if parts > 1 {
			vc = r.Intn(parts+1) - 1
		}
		tr.Jobs = append(tr.Jobs, trace.Job{
			ID: i, User: r.Intn(4), Submit: now, Wait: -1,
			Run: run, Walltime: wall,
			Procs: 1 + r.Intn(capPerPart), VC: vc,
		})
	}
	tr.SortBySubmit()
	return tr
}

// TestConsPlanMatchesFromScratchRandom is the randomized property test:
// across many seeded small traces and every option variant, the maintained
// reservation structure must equal a from-scratch rebuild after every event
// (the audit hook fires on every planning pass, i.e. after every event that
// touches the partition).
func TestConsPlanMatchesFromScratchRandom(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	shapes := []struct{ cores, parts, n int }{
		{8, 1, 130},
		{23, 2, 110},
	}
	for seed := 1; seed <= seeds; seed++ {
		for _, sh := range shapes {
			tr := randomConsTrace(rand.New(rand.NewSource(int64(seed)*1009+int64(sh.cores))), sh.cores, sh.parts, sh.n)
			for _, v := range consPlanVariants() {
				label := fmt.Sprintf("seed%d/c%dp%d/%s", seed, sh.cores, sh.parts, v.name)
				c := installConsReplay(t)
				if _, err := Run(tr, v.opt); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c.report(t, label)
				SetConsPlanAudit(nil)
			}
		}
	}
}

// TestConsPlanReusesKeptEntries guards the tentpole against silent
// regression to rebuild-every-pass: on a deep-queue stress workload under a
// static order, the passes must actually carry reservations over instead of
// replanning them, and carried entries must dominate fresh plans.
func TestConsPlanReusesKeptEntries(t *testing.T) {
	tr, err := synth.VerifyConsDeep(0.3).Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Jobs {
		tr.Jobs[i].Wait = -1
	}
	var met obs.Metrics
	if _, err := Run(tr, Options{Policy: FCFS, Backfill: Conservative, Metrics: &met}); err != nil {
		t.Fatal(err)
	}
	if met.ConsPasses == 0 || met.ConsPlannedJobs == 0 {
		t.Fatalf("conservative run recorded no planning work: passes=%d planned=%d",
			met.ConsPasses, met.ConsPlannedJobs)
	}
	// A regression to rebuild-every-pass shows up as zero carried entries
	// (repair truncates to nothing, or the plan never persists). Direct head
	// starts legitimately reset the plan, so demand only a healthy average,
	// not kept >> planned.
	if met.ConsKeptJobs < met.ConsPasses {
		t.Errorf("kept %d reservations over %d passes; the incremental planner is barely re-using its plan",
			met.ConsKeptJobs, met.ConsPasses)
	}
	t.Logf("passes=%d kept=%d planned=%d (%.1f kept/pass)",
		met.ConsPasses, met.ConsKeptJobs, met.ConsPlannedJobs,
		float64(met.ConsKeptJobs)/float64(met.ConsPasses))
}
