package check

import (
	"bytes"
	"strings"
	"testing"

	"crosssched/internal/obs"
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

// streamPageRows is the stream window's page size (sim's streamPageRows).
const streamPageRows = 2048

// TestStreamDifferentialSweep runs the engine table — the streamed and the
// checkpoint-forked rows — against the materialized run, with the
// auditor, for every policy x backfill combination on each verification
// workload plus the seven-partition VerifyVCWide. Two-day traces are
// beyond the O(n²) oracle, so the oracle step is left out; in exchange
// VerifyVC and VerifyVCWide outgrow one stream window page, so the window
// opens a second page and recycles the first under the exact comparison.
func TestStreamDifferentialSweep(t *testing.T) {
	days := 2.0
	if testing.Short() {
		days = 0.25
	}
	for _, p := range append(synth.VerifyProfiles(days), verifyVCWide(days)) {
		p := p
		t.Run(p.Sys.Name, func(t *testing.T) {
			t.Parallel()
			tr := verifyTrace(t, p, 7)
			t.Logf("%s: %d jobs", p.Sys.Name, tr.Len())
			if !testing.Short() && strings.HasPrefix(p.Sys.Name, "VerifyVC") && tr.Len() <= streamPageRows {
				t.Fatalf("%s: %d jobs fit in one %d-row window page; the sweep crosses no page",
					p.Sys.Name, tr.Len(), streamPageRows)
			}
			for _, opt := range Combos(0.15) {
				if err := verify(tr, opt, false); err != nil {
					t.Errorf("%s + %s: %v", opt.Policy, opt.Backfill, err)
				}
			}
		})
	}
}

// TestEngineComparisonNamesField proves the engine comparison has teeth:
// an engine whose run differs from the materialized one in a single row,
// promise, decision event, fault counter or summary wait fails with an
// error naming that field.
func TestEngineComparisonNamesField(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.2), 7)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, Faults: faultScenarios()["mixed"]}
	rec := &obs.Recorder{}
	matOpt := opt
	matOpt.Observer = rec
	mat, err := sim.Run(tr, matOpt)
	if err != nil {
		t.Fatal(err)
	}
	forked := engines[len(engines)-1]
	if forked.name != "forked" {
		t.Fatalf("last engine row is %q, want forked", forked.name)
	}
	if err := forked.check(tr, opt, mat, rec.Events); err != nil {
		t.Fatalf("untouched fork must match: %v", err)
	}
	cases := []struct {
		field  string
		tamper func(r *engineRun)
	}{
		{"Result.Jobs[5].Wait", func(r *engineRun) { r.res.Jobs[5].Wait++ }},
		{"Result.PromisedStart[3]", func(r *engineRun) { r.res.PromisedStart[3]++ }},
		{"events[10].Detail", func(r *engineRun) { r.events[10].Detail += 0.5 }},
		{"Result.Requeued", func(r *engineRun) { r.res.Requeued++ }},
		{"Summary.Waits[5]", func(r *engineRun) { r.sum.Waits[5]++ }},
		{"Summary.Interrupted", func(r *engineRun) { r.sum.Interrupted++ }},
	}
	for _, tc := range cases {
		tampered := forked
		tampered.run = func(tr *trace.Trace, opt sim.Options) (engineRun, error) {
			r, err := forked.run(tr, opt)
			if err == nil {
				tc.tamper(&r)
			}
			return r, err
		}
		err := tampered.check(tr, opt, mat, rec.Events)
		if err == nil || !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("tampered %s: got %v, want an error naming it", tc.field, err)
		}
	}
}

// TestStreamFromSWFMatchesMaterialized closes the full pipeline loop: a
// trace serialized to SWF, streamed back through trace.SWFStream into
// sim.RunStream, must match materializing the same bytes with ReadSWF and
// running sim.Run: rows, promises and the whole Result.
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
	var jobs []trace.Job
	var promised []float64
	got, err := sim.RunStream(src, opt, func(r sim.StreamRow) error {
		jobs = append(jobs, r.Job)
		promised = append(promised, r.Promised)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got.Jobs, got.PromisedStart = jobs, promised
	if err := sameRun(got, nil, want, nil); err != nil {
		t.Fatal(err)
	}
}
