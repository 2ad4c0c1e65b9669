package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	t := New(System{Name: "Test", Kind: HPC, TotalCores: 1000, CoresPerNode: 16, StartHour: 8})
	t.Jobs = []Job{
		{ID: 0, User: 0, Submit: 0, Wait: 10, Run: 100, Walltime: 200, Procs: 16, VC: -1, Status: Passed},
		{ID: 1, User: 1, Submit: 5, Wait: 0, Run: 50, Walltime: 100, Procs: 32, VC: -1, Status: Failed},
		{ID: 2, User: 0, Submit: 20, Wait: 40, Run: 400, Walltime: 500, Procs: 16, VC: -1, Status: Killed},
		{ID: 3, User: 2, Submit: 30, Wait: 5, Run: 10, Walltime: 20, Procs: 8, VC: -1, Status: Passed},
	}
	return t
}

func TestStatusString(t *testing.T) {
	if Passed.String() != "Passed" || Failed.String() != "Failed" || Killed.String() != "Killed" {
		t.Fatal("status names wrong")
	}
	if Status(99).String() != "Status(99)" {
		t.Fatal("unknown status formatting wrong")
	}
}

func TestParseStatusRoundTrip(t *testing.T) {
	for _, s := range []Status{Passed, Failed, Killed} {
		got, err := ParseStatus(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip of %v failed: %v %v", s, got, err)
		}
	}
	if _, err := ParseStatus("Exploded"); err == nil {
		t.Fatal("expected error for unknown status")
	}
}

func TestJobDerivedQuantities(t *testing.T) {
	j := Job{Submit: 100, Wait: 20, Run: 60, Procs: 4}
	if j.Start() != 120 || j.End() != 180 {
		t.Fatalf("start/end wrong: %v %v", j.Start(), j.End())
	}
	if j.Turnaround() != 80 {
		t.Fatalf("turnaround %v", j.Turnaround())
	}
	if got := j.CoreSeconds(); got != 240 {
		t.Fatalf("core seconds %v", got)
	}
	if got := j.CoreHours(); math.Abs(got-240.0/3600) > 1e-12 {
		t.Fatalf("core hours %v", got)
	}
}

func TestJobUnknownWait(t *testing.T) {
	j := Job{Submit: 100, Wait: -1, Run: 60}
	if j.Start() != 100 || j.End() != 160 || j.Turnaround() != 60 {
		t.Fatal("unknown-wait derived values wrong")
	}
}

func TestBoundedSlowdown(t *testing.T) {
	// short job: run 1s, wait 9s, tau 10 -> max(10/10, 1) = 1
	j := Job{Wait: 9, Run: 1}
	if got := j.BoundedSlowdown(10); got != 1 {
		t.Fatalf("bsld %v want 1", got)
	}
	// run 100, wait 100 -> 200/100 = 2
	j2 := Job{Wait: 100, Run: 100}
	if got := j2.BoundedSlowdown(10); got != 2 {
		t.Fatalf("bsld %v want 2", got)
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{Procs: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	bad := []Job{
		{Submit: -1, Procs: 1},
		{Run: -1, Procs: 1},
		{Procs: 0},
		{Procs: 1, Walltime: -5},
		{Procs: 1, User: -1},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Fatalf("bad job %d accepted", i)
		}
	}
}

func TestTraceSortAndValidate(t *testing.T) {
	tr := sampleTrace()
	// scramble
	tr.Jobs[0], tr.Jobs[2] = tr.Jobs[2], tr.Jobs[0]
	tr.SortBySubmit()
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate after sort: %v", err)
	}
	for i := range tr.Jobs {
		if tr.Jobs[i].ID != i {
			t.Fatalf("IDs not densified: %v", tr.Jobs[i].ID)
		}
		if i > 0 && tr.Jobs[i].Submit < tr.Jobs[i-1].Submit {
			t.Fatal("not sorted")
		}
	}
}

func TestTraceValidateRejects(t *testing.T) {
	tr := sampleTrace()
	tr.System.TotalCores = 0
	if tr.Validate() == nil {
		t.Fatal("zero capacity accepted")
	}
	tr = sampleTrace()
	tr.Jobs[1].Procs = 99999
	if tr.Validate() == nil {
		t.Fatal("oversized job accepted")
	}
	tr = sampleTrace()
	tr.Jobs[1].Submit = -100
	if tr.Validate() == nil {
		t.Fatal("out-of-order/negative submit accepted")
	}
}

func TestWindow(t *testing.T) {
	tr := sampleTrace()
	w := tr.Window(5, 30)
	if w.Len() != 2 {
		t.Fatalf("window len %d want 2", w.Len())
	}
	if w.Jobs[0].Submit != 0 || w.Jobs[1].Submit != 15 {
		t.Fatalf("window submits not rebased: %v %v", w.Jobs[0].Submit, w.Jobs[1].Submit)
	}
	if w.Jobs[0].ID != 0 || w.Jobs[1].ID != 1 {
		t.Fatal("window IDs not densified")
	}
}

func TestClone(t *testing.T) {
	tr := sampleTrace()
	c := tr.Clone()
	c.Jobs[0].Run = 999
	if tr.Jobs[0].Run == 999 {
		t.Fatal("clone shares backing array")
	}
}

func TestUsersAndGrouping(t *testing.T) {
	tr := sampleTrace()
	users := tr.Users()
	if len(users) != 3 || users[0] != 0 || users[2] != 2 {
		t.Fatalf("users = %v", users)
	}
	byUser := tr.JobsByUser()
	if len(byUser[0]) != 2 || len(byUser[1]) != 1 {
		t.Fatalf("jobs by user wrong: %v", byUser)
	}
	top := tr.TopUsersByJobCount(2)
	if len(top) != 2 || top[0] != 0 {
		t.Fatalf("top users = %v", top)
	}
}

func TestVectorsAndIntervals(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Runtimes(); len(got) != 4 || got[2] != 400 {
		t.Fatalf("runtimes %v", got)
	}
	if got := tr.Waits(); len(got) != 4 {
		t.Fatalf("waits %v", got)
	}
	tr.Jobs[0].Wait = -1
	if got := tr.Waits(); len(got) != 3 {
		t.Fatalf("waits with unknown %v", got)
	}
	iv := tr.ArrivalIntervals()
	want := []float64{5, 15, 10}
	for i := range want {
		if iv[i] != want[i] {
			t.Fatalf("intervals %v want %v", iv, want)
		}
	}
	if New(System{}).ArrivalIntervals() != nil {
		t.Fatal("intervals of empty trace should be nil")
	}
}

func TestDurationAndCoreHours(t *testing.T) {
	tr := sampleTrace()
	// job 2 ends at 20+40+400 = 460; first submit 0
	if got := tr.Duration(); got != 460 {
		t.Fatalf("duration %v want 460", got)
	}
	wantCH := (100*16 + 50*32 + 400*16 + 10*8) / 3600.0
	got := 0.0
	for _, j := range tr.Jobs {
		got += j.CoreHours()
	}
	if math.Abs(got-wantCH) > 1e-9 {
		t.Fatalf("core hours %v want %v", got, wantCH)
	}
	if New(System{}).Duration() != 0 {
		t.Fatal("empty duration should be 0")
	}
}

// Property: Window never yields jobs outside [0, to-from) and keeps exactly
// the jobs submitted in [from, to).
func TestWindowPropertyQuick(t *testing.T) {
	f := func(seed uint8) bool {
		tr := sampleTrace()
		from := float64(seed % 30)
		to := from + float64(seed%50) + 1
		w := tr.Window(from, to)
		for _, j := range w.Jobs {
			if j.Submit < 0 || j.Submit >= to-from {
				return false
			}
		}
		count := 0
		for _, j := range tr.Jobs {
			if j.Submit >= from && j.Submit < to {
				count++
			}
		}
		return count == w.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
