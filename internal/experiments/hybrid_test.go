package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestHybridSweepStructure(t *testing.T) {
	pts, err := HybridSweep(context.Background(), 4, 3, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	baseline, mixed := pts[0], pts[1]
	if baseline.DLJobs != 0 {
		t.Fatalf("baseline has %d DL jobs", baseline.DLJobs)
	}
	if mixed.DLJobs == 0 {
		t.Fatal("mixed point has no DL jobs")
	}
	// injected count should be roughly the requested share
	frac := float64(mixed.DLJobs) / float64(mixed.DLJobs+mixed.HPCJobs)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("DL fraction %v far from requested 0.5", frac)
	}
	if baseline.HPCJobs != mixed.HPCJobs {
		t.Fatalf("HPC base jobs changed: %d vs %d", baseline.HPCJobs, mixed.HPCJobs)
	}
	for _, p := range pts {
		if p.Util <= 0 || p.Util > 1 {
			t.Fatalf("share %v: util %v", p.DLShare, p.Util)
		}
	}
	out := RenderHybrid(pts)
	if !strings.Contains(out, "DLshare") || !strings.Contains(out, "0.50") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

// TestHybridInjectionLoadsTheMachine: adding DL jobs must not reduce
// utilization, and the DL class should experience short waits relative to
// its runtimes (they are small jobs that backfill easily).
func TestHybridInjectionLoadsTheMachine(t *testing.T) {
	pts, err := HybridSweep(context.Background(), 4, 3, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Util < pts[0].Util*0.95 {
		t.Fatalf("utilization collapsed with DL injection: %v -> %v",
			pts[0].Util, pts[1].Util)
	}
	if pts[1].DLMedianWait > pts[1].HPCMedianWait*2+60 {
		t.Fatalf("DL median wait %v should not dwarf HPC %v (small jobs backfill)",
			pts[1].DLMedianWait, pts[1].HPCMedianWait)
	}
}

func TestHybridDefaultShares(t *testing.T) {
	pts, err := HybridSweep(context.Background(), 1, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("default shares produced %d points", len(pts))
	}
}
