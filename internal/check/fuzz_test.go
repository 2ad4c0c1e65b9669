package check

import (
	"testing"

	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// decodeFuzzInput maps arbitrary bytes onto a small workload plus simulator
// options. The first six bytes pick the configuration, then each six-byte
// chunk becomes one job. Returns nil when the input is too short to carry
// at least one job.
func decodeFuzzInput(data []byte) (*trace.Trace, sim.Options) {
	const header = 6
	const chunk = 6
	if len(data) < header+chunk {
		return nil, sim.Options{}
	}
	parts := 1 + int(data[2])%3
	coresPerPart := 2 + int(data[3])%14
	opt := sim.Options{
		Policy:      sim.Policies[int(data[0])%len(sim.Policies)],
		Backfill:    sim.Backfills[int(data[1])%len(sim.Backfills)],
		RelaxFactor: float64(data[4]%50) / 100,
	}
	if data[5]&1 != 0 {
		opt.UseActualRuntime = true
	}
	if data[5]&2 != 0 {
		opt.MaxQueueLen = 8
	}

	tr := trace.New(trace.System{
		Name:            "fuzz",
		TotalCores:      parts * coresPerPart,
		VirtualClusters: parts,
	})
	submit := 0.0
	body := data[header:]
	for off := 0; off+chunk <= len(body) && len(tr.Jobs) < 40; off += chunk {
		c := body[off : off+chunk]
		submit += float64(c[0]) * 3.7
		run := float64(c[1]) * float64(c[2]) * 0.7
		walltime := 0.0
		if c[5] != 0 {
			walltime = run*(0.5+float64(c[5])/64) + 1
		}
		tr.Jobs = append(tr.Jobs, trace.Job{
			ID:       len(tr.Jobs),
			User:     int(c[3]) % 5,
			Submit:   submit,
			Wait:     -1,
			Run:      run,
			Walltime: walltime,
			Procs:    1 + int(c[3])%coresPerPart,
			VC:       int(c[4])%(parts+1) - 1,
		})
	}
	tr.SortBySubmit()
	return tr, opt
}

// FuzzSimulator decodes arbitrary bytes into a workload + configuration and
// runs the full differential gate: the optimized simulator must match the
// O(n²) oracle exactly and pass the schedule auditor, and (for fault-free
// configurations, the only ones streaming accepts) the streaming simulator
// must reproduce the materialized run float for float, whatever the input.
func FuzzSimulator(f *testing.F) {
	// Seeds covering each backfill kind, a partitioned system, zero-runtime
	// jobs, and walltime kills.
	f.Add([]byte{0, 1, 0, 6, 10, 0, 3, 9, 8, 2, 0, 40, 1, 4, 4, 3, 0, 0, 0, 20, 20, 1, 1, 9})
	f.Add([]byte{1, 3, 2, 4, 20, 1, 5, 12, 12, 7, 2, 30, 0, 0, 0, 4, 1, 0, 9, 30, 3, 2, 0, 64})
	f.Add([]byte{8, 4, 1, 8, 10, 2, 2, 16, 16, 1, 0, 16, 2, 8, 8, 5, 0, 32, 1, 1, 1, 0, 0, 0})
	f.Add([]byte{3, 2, 0, 2, 0, 3, 0, 255, 255, 13, 1, 1, 0, 0, 200, 2, 0, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, opt := decodeFuzzInput(data)
		if tr == nil {
			return
		}
		if err := Verify(tr, opt); err != nil {
			t.Fatalf("%s + %s on %d jobs: %v", opt.Policy, opt.Backfill, tr.Len(), err)
		}
		if !opt.Faults.Enabled() {
			if err := VerifyStream(tr, opt); err != nil {
				t.Fatalf("stream %s + %s on %d jobs: %v", opt.Policy, opt.Backfill, tr.Len(), err)
			}
		}
	})
}
