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
	opt := sim.Options{Policy: sim.FCFS, Backfill: sim.Relaxed, RelaxFactor: 0.15}
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := AuditStream(tr, opt, rec.Events, res).Err(); err != nil {
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

	cases := []struct {
		name      string
		invariant string
		corrupt   func(evs []obs.Event) []obs.Event
	}{
		// Dropping a completion either trips conservation (a later start
		// exceeds capacity on the never-freed cores) or, on an idle tail,
		// the end-of-stream leak check — both are "conservation".
		{"dropped completion", "conservation", func(evs []obs.Event) []obs.Event {
			i := find(obs.JobComplete)
			return append(append([]obs.Event(nil), evs[:i]...), evs[i+1:]...)
		}},
		{"duplicated start", "lifecycle", func(evs []obs.Event) []obs.Event {
			i := find(obs.JobStart)
			out := append([]obs.Event(nil), evs...)
			return append(out[:i+1], append([]obs.Event{evs[i]}, out[i+1:]...)...)
		}},
		{"shifted start wait", "lifecycle", func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			i := find(obs.JobStart)
			out[i].Detail += 1
			return out
		}},
		{"forged promise", "promise", func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			i := find(obs.ReservationMade)
			out[i].Detail += 10
			return out
		}},
		{"inflated procs", "stream", func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			i := find(obs.JobStart)
			out[i].Procs++
			return out
		}},
		{"phantom violation", "promise", func(evs []obs.Event) []obs.Event {
			out := append([]obs.Event(nil), evs...)
			i := find(obs.JobStart)
			return append(out[:i+1], append([]obs.Event{{
				Kind: obs.PromiseViolation, Time: out[i].Time, Job: out[i].Job,
				Part: out[i].Part, Procs: out[i].Procs, Detail: 5,
			}}, out[i+1:]...)...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := AuditStream(tr, opt, tc.corrupt(rec.Events), res)
			if rep.OK() {
				t.Fatalf("%s went undetected", tc.name)
			}
			found := false
			for _, f := range rep.Findings {
				if f.Invariant == tc.invariant {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected a %q finding, got: %v", tc.invariant, rep.Err())
			}
		})
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
	if err := AuditStream(tr, opt, decoded, res).Err(); err != nil {
		t.Fatalf("round-tripped stream rejected: %v", err)
	}
}
