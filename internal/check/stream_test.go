package check

import (
	"strings"
	"testing"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
)

// TestStreamAuditDetectsTampering corrupts a genuine stream in targeted
// ways and checks the auditor notices each one.
func TestStreamAuditDetectsTampering(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyHPC(0.2), 9)
	// A loose relax factor, so that some promised job starts late and the
	// stream carries a violation event to tamper with.
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.Relaxed, RelaxFactor: 1}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(tr, opt, rec.Events, res).Err(); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	find := func(k obs.Kind) int {
		for i, e := range rec.Events {
			if e.Kind == k {
				return i
			}
		}
		t.Fatalf("stream has no %s event", k)
		return -1
	}

	// violator is the first job that started behind its promise; its
	// violation event and trace index anchor the promise tampers below.
	vi := find(obs.PromiseViolation)
	violator := -1
	for k := range tr.Jobs {
		if tr.Jobs[k].ID == rec.Events[vi].Job {
			violator = k
		}
	}
	replace := func(evs []obs.Event, at int, with ...obs.Event) []obs.Event {
		out := append([]obs.Event(nil), evs[:at]...)
		return append(append(out, with...), evs[at+1:]...)
	}

	cases := []struct {
		name      string
		invariant string
		corrupt   func(evs []obs.Event) []obs.Event
		// Optional: mutate corrupts the Result alongside the stream, and
		// detail names the check that must fire.
		mutate func(r *sim.Result)
		detail string
	}{
		// Dropping a completion either trips conservation (a later start
		// exceeds capacity on the never-freed cores) or, on an idle tail,
		// the end-of-stream leak check — both are "conservation".
		{name: "dropped completion", invariant: "conservation", corrupt: func(evs []obs.Event) []obs.Event {
			i := find(obs.JobComplete)
			return append(append([]obs.Event(nil), evs[:i]...), evs[i+1:]...)
		}},
		{name: "duplicated start", invariant: "lifecycle", corrupt: func(evs []obs.Event) []obs.Event {
			i := find(obs.JobStart)
			out := append([]obs.Event(nil), evs...)
			return append(out[:i+1], append([]obs.Event{evs[i]}, out[i+1:]...)...)
		}},
		{name: "shifted start wait", invariant: "lifecycle", corrupt: func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			i := find(obs.JobStart)
			out[i].Detail += 1
			return out
		}},
		{name: "forged promise", invariant: "promise", corrupt: func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			i := find(obs.ReservationMade)
			out[i].Detail += 10
			return out
		}},
		{name: "inflated procs", invariant: "stream", corrupt: func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			i := find(obs.JobStart)
			out[i].Procs++
			return out
		}},
		{name: "phantom violation", invariant: "promise", corrupt: func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			i := find(obs.JobStart)
			return append(out[:i+1], append([]obs.Event{{
				Kind: obs.PromiseViolation, Time: out[i].Time, Job: out[i].Job,
				Part: out[i].Part, Procs: out[i].Procs, Detail: 5,
			}}, out[i+1:]...)...)
		}},
		// A repeated backfill event, with the count raised to match, is
		// caught because a backfill must directly follow its start.
		{name: "duplicated backfill", invariant: "stream", detail: "directly follow",
			corrupt: func(evs []obs.Event) []obs.Event {
				i := find(obs.Backfill)
				return replace(evs, i, evs[i], evs[i])
			},
			mutate: func(r *sim.Result) { r.Backfilled++ }},
		// A second submit of the first job keeps one more job queued for
		// the rest of the stream, so the recomputed peak rises.
		{name: "inflated max queue", invariant: "metrics", detail: "max queue",
			corrupt: func(evs []obs.Event) []obs.Event {
				i := find(obs.JobSubmit)
				return replace(evs, i, evs[i], evs[i])
			}},
		{name: "late makespan", invariant: "metrics", detail: "makespan",
			corrupt: func(evs []obs.Event) []obs.Event {
				out := append([]obs.Event(nil), evs...)
				for i := len(out) - 1; i >= 0; i-- {
					if out[i].Kind == obs.JobComplete {
						out[i].Time += 100
						break
					}
				}
				return out
			}},
		// Dropped from the stream and the Result's counts alike: only the
		// recount from PromisedStart still sees the late start.
		{name: "violation dropped everywhere", invariant: "promise", detail: "recounted",
			corrupt: func(evs []obs.Event) []obs.Event {
				return append(append([]obs.Event(nil), evs[:vi]...), evs[vi+1:]...)
			},
			mutate: func(r *sim.Result) {
				r.Violations--
				r.ViolationDelay -= rec.Events[vi].Detail
			}},
		// Moving a promise back to the job's submission makes its whole
		// wait a slip, far past RelaxFactor x the (now zero) expected wait.
		{name: "allowance abuse", invariant: "allowance",
			corrupt: func(evs []obs.Event) []obs.Event {
				out := append([]obs.Event(nil), evs...)
				for i := range out {
					if out[i].Kind == obs.ReservationMade && out[i].Job == tr.Jobs[violator].ID {
						out[i].Detail = tr.Jobs[violator].Submit
					}
				}
				return out
			},
			mutate: func(r *sim.Result) { r.PromisedStart[violator] = tr.Jobs[violator].Submit }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := *res
			c.PromisedStart = append([]float64(nil), res.PromisedStart...)
			if tc.mutate != nil {
				tc.mutate(&c)
			}
			rep := Audit(tr, opt, tc.corrupt(rec.Events), &c)
			if rep.OK() {
				t.Fatalf("%s went undetected", tc.name)
			}
			found := false
			for _, f := range rep.Findings {
				if f.Invariant == tc.invariant && strings.Contains(f.Detail, tc.detail) {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected a %q finding naming %q, got: %v", tc.invariant, tc.detail, rep.Err())
			}
		})
	}
}

// TestStreamAuditWrongPartition: every job event must name the partition
// the trace maps the job to, or conservation would be replayed against
// the wrong capacity.
func TestStreamAuditWrongPartition(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyVC(0.15), 13)
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	parts := len(PartitionCapacities(tr.System))
	if parts < 2 {
		t.Fatalf("workload has %d partitions, want several", parts)
	}
	evs := append([]obs.Event(nil), rec.Events...)
	evs[0].Part = (evs[0].Part + 1) % parts
	rep := Audit(tr, opt, evs, res)
	if !streamHasFinding(rep, "trace maps it to") {
		t.Fatalf("job event on a foreign partition went undetected: %v", rep.Err())
	}
}

// TestStreamAuditJSONLRoundTrip: the stream survives JSONL serialization
// byte-exactly, so an -events-out file can be audited offline.
func TestStreamAuditJSONLRoundTrip(t *testing.T) {
	tr := verifyTrace(t, synth.VerifyVC(0.15), 13)
	opt := sim.Options{Policy: sim.SJF, Backfill: sim.EASY}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	w := obs.NewJSONLWriter(&buf)
	for _, e := range rec.Events {
		w.Observe(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rec.Events) {
		t.Fatalf("decoded %d events, recorded %d", len(decoded), len(rec.Events))
	}
	if err := Audit(tr, opt, decoded, res).Err(); err != nil {
		t.Fatalf("round-tripped stream rejected: %v", err)
	}
}
