package check

import (
	"bytes"
	"testing"

	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// verifyVCWide is VerifyVC stretched over seven partitions (112 cores), so
// the differential sweep also covers a many-partition trace whose
// partitions each see sparse traffic and schedule out of step.
func verifyVCWide(days float64) *synth.Profile {
	p := synth.VerifyVC(days)
	p.Sys.Name = "VerifyVCWide"
	p.Sys.TotalCores = 112
	p.Sys.VirtualClusters = 7
	return p
}

// TestStreamDifferentialSweep: the windowed streaming simulator must be
// float-for-float identical to the materialized one — per-row waits and
// promises, every aggregate, the queue timeline, and the decision-event
// stream — for every policy x backfill combination on each verification
// workload plus the seven-partition VerifyVCWide. Streaming traces can be
// longer than oracle traces (the comparison is O(n log n), not O(n²)), so
// the window slides through multiple compactions here.
func TestStreamDifferentialSweep(t *testing.T) {
	days := 1.0
	if testing.Short() {
		days = 0.25
	}
	for _, p := range append(synth.VerifyProfiles(days), verifyVCWide(days)) {
		p := p
		t.Run(p.Sys.Name, func(t *testing.T) {
			t.Parallel()
			tr := verifyTrace(t, p, 7)
			t.Logf("%s: %d jobs", p.Sys.Name, tr.Len())
			for _, opt := range Combos(0.15) {
				if err := VerifyStream(tr, opt); err != nil {
					t.Errorf("%s + %s: %v", opt.Policy, opt.Backfill, err)
				}
			}
		})
	}
}

// TestStreamDifferentialOptionVariants covers the option axes the sweep
// holds fixed, mirroring TestDifferentialOptionVariants.
func TestStreamDifferentialOptionVariants(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.5), 11)
	variants := []struct {
		name string
		opt  sim.Options
	}{
		{"oracle-runtime", sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, UseActualRuntime: true}},
		{"predictor", sim.Options{Policy: sim.FCFS, Backfill: sim.EASY,
			WalltimePredictor: func(j trace.Job) float64 { return j.Run*1.2 + 60 }}},
		{"custom-score", sim.Options{Backfill: sim.EASY,
			CustomScore: func(reqTime float64, procs int, submit, now float64) float64 {
				return reqTime * float64(procs)
			}}},
		{"adaptive-fixed-maxq", sim.Options{Policy: sim.SJF, Backfill: sim.AdaptiveRelaxed,
			RelaxFactor: 0.2, MaxQueueLen: 12}},
		{"fair-short-halflife", sim.Options{Policy: sim.Fair, Backfill: sim.Relaxed,
			FairshareHalfLife: 3600}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			if err := VerifyStream(tr, v.opt); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStreamFromSWFMatchesMaterialized closes the full pipeline loop: a
// trace serialized to SWF, streamed back through trace.SWFStream into
// sim.RunStream, must match materializing the same bytes with ReadSWF and
// running sim.Run.
func TestStreamFromSWFMatchesMaterialized(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyBurst(0.5), 3)
	var buf bytes.Buffer
	if err := trace.WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	mat, err := trace.ReadSWF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.Options{Policy: sim.SJF, Backfill: sim.EASY}
	want, err := sim.Run(mat, opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewSWFStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	got, err := sim.RunStream(src, opt, func(r sim.StreamRow) error {
		if r.Job.Wait != want.Jobs[i].Wait {
			t.Errorf("row %d wait %v want %v", i, r.Job.Wait, want.Jobs[i].Wait)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want.Jobs) {
		t.Fatalf("retired %d rows want %d", i, len(want.Jobs))
	}
	if got.AvgWait != want.AvgWait || got.AvgBsld != want.AvgBsld || got.Makespan != want.Makespan {
		t.Fatalf("aggregates differ: %+v vs %+v", got, want)
	}
}
