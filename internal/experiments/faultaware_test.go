package experiments

import (
	"context"
	"strings"
	"testing"

	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

func TestFaultAwareRejectsTiny(t *testing.T) {
	tr := trace.New(trace.System{Name: "T", TotalCores: 4})
	if _, err := FaultAware(context.Background(), tr, nil, 0); err == nil {
		t.Fatal("tiny trace accepted")
	}
}

func TestFaultAwareStructure(t *testing.T) {
	p := synth.Philly(3)
	tr, err := p.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FaultAware(context.Background(), tr, []float64{0.7, 0.9}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Terminated != pt.TruePositives+pt.FalseKills {
			t.Fatalf("termination accounting broken: %+v", pt)
		}
		if pt.SavedCoreHours < 0 || pt.LostCoreHours < 0 {
			t.Fatalf("negative core hours: %+v", pt)
		}
		if pt.NetCoreHours != pt.SavedCoreHours-pt.LostCoreHours {
			t.Fatalf("net mismatch: %+v", pt)
		}
		if p := pt.Precision(); p < 0 || p > 1 {
			t.Fatalf("precision %v", p)
		}
		if pt.WastedBaseline <= 0 {
			t.Fatal("no addressable waste measured")
		}
	}
	// Higher threshold must terminate fewer (or equal) jobs.
	if res.Points[1].Terminated > res.Points[0].Terminated {
		t.Fatalf("higher threshold terminated more: %d > %d",
			res.Points[1].Terminated, res.Points[0].Terminated)
	}
	out := res.Render()
	for _, want := range []string{"threshold", "precision", "addressable waste"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

// TestFaultAwareSavesAtHighThreshold is the Takeaway-7 payoff: with a
// conservative threshold the predictor should save core hours net of the
// good work it destroys.
func TestFaultAwareSavesAtHighThreshold(t *testing.T) {
	p := synth.Philly(3)
	tr, err := p.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FaultAware(context.Background(), tr, []float64{0.9}, 300)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Terminated == 0 {
		t.Skip("no terminations at 0.9 on this seed; nothing to assert")
	}
	if pt.NetCoreHours <= 0 {
		t.Errorf("high-threshold proactive termination lost core hours net: %+v", pt)
	}
	if pt.Precision() < 0.7 {
		t.Errorf("precision %.2f too low at threshold 0.9", pt.Precision())
	}
}

func TestFaultAwareDefaultThresholds(t *testing.T) {
	p := synth.Helios(2)
	tr, err := p.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FaultAware(context.Background(), tr, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("default thresholds produced %d points", len(res.Points))
	}
	if res.CheckEvery != 300 {
		t.Fatalf("default checkpoint period %v", res.CheckEvery)
	}
}
