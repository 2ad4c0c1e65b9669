package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestSWFRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteSWF(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadSWF(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.System.Name != "Test" || got.System.Kind != HPC ||
		got.System.TotalCores != 1000 || got.System.CoresPerNode != 16 ||
		got.System.StartHour != 8 {
		t.Fatalf("system metadata lost: %+v", got.System)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("job count %d want %d", got.Len(), tr.Len())
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], got.Jobs[i]
		if a.User != b.User || a.Submit != b.Submit || a.Run != b.Run ||
			a.Procs != b.Procs || a.Status != b.Status || a.Wait != b.Wait ||
			a.Walltime != b.Walltime || a.VC != b.VC {
			t.Fatalf("job %d mismatch:\n  %+v\n  %+v", i, a, b)
		}
	}
}

func TestSWFUnknownWait(t *testing.T) {
	tr := sampleTrace()
	tr.Jobs[0].Wait = -1
	var buf bytes.Buffer
	if err := WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs[0].Wait != -1 {
		t.Fatalf("unknown wait not preserved: %v", got.Jobs[0].Wait)
	}
}

func TestSWFRejectsShortLines(t *testing.T) {
	_, err := ReadSWF(strings.NewReader("1 2 3\n"))
	if err == nil {
		t.Fatal("expected error for short SWF line")
	}
}

func TestSWFSkipsBlankAndComments(t *testing.T) {
	in := "; Computer: X\n\n; junk no colon\n"
	tr, err := ReadSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.System.Name != "X" || tr.Len() != 0 {
		t.Fatalf("header-only parse wrong: %+v", tr.System)
	}
}

func TestSWFInfersCapacity(t *testing.T) {
	// one job line requesting 64 procs, no MaxProcs header
	line := "1 0.0 1.0 10.0 64 -1 -1 64 20.0 -1 1 1 -1 -1 -1 -1 -1 -1\n"
	tr, err := ReadSWF(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if tr.System.TotalCores != 64 {
		t.Fatalf("inferred capacity %d want 64", tr.System.TotalCores)
	}
}

func TestSWFStatusMapping(t *testing.T) {
	in := "; MaxProcs: 10\n" +
		"1 0.0 0.0 1.0 1 -1 -1 1 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n" +
		"2 1.0 0.0 1.0 1 -1 -1 1 1.0 -1 0 1 -1 -1 -1 -1 -1 -1\n" +
		"3 2.0 0.0 1.0 1 -1 -1 1 1.0 -1 5 1 -1 -1 -1 -1 -1 -1\n"
	tr, err := ReadSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{Passed, Failed, Killed}
	for i, w := range want {
		if tr.Jobs[i].Status != w {
			t.Fatalf("job %d status %v want %v", i, tr.Jobs[i].Status, w)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCSV(&buf, tr.System)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len %d want %d", got.Len(), tr.Len())
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], got.Jobs[i]
		if a.User != b.User || a.Submit != b.Submit || a.Run != b.Run ||
			a.Procs != b.Procs || a.Status != b.Status || a.VC != b.VC {
			t.Fatalf("job %d mismatch:\n  %+v\n  %+v", i, a, b)
		}
	}
}

func TestCSVEmpty(t *testing.T) {
	got, err := ReadCSV(strings.NewReader(""), System{Name: "E"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.System.Name != "E" {
		t.Fatal("empty CSV parse wrong")
	}
}

func TestCSVRejectsBadRows(t *testing.T) {
	bad := []string{
		"id,user,submit,wait,run,walltime,procs,vc,status\nx,0,0,0,0,0,1,-1,Passed\n",
		"id,user,submit,wait,run,walltime,procs,vc,status\n0,0,0,0,0,0,1,-1,Bogus\n",
		"id,user,submit,wait,run,walltime,procs,vc,status\n0,0,zz,0,0,0,1,-1,Passed\n",
	}
	for i, in := range bad {
		if _, err := ReadCSV(strings.NewReader(in), System{}); err == nil {
			t.Fatalf("bad csv %d accepted", i)
		}
	}
}

func TestCSVInfersCapacity(t *testing.T) {
	in := "id,user,submit,wait,run,walltime,procs,vc,status\n0,0,0,0,10,20,128,-1,Passed\n"
	tr, err := ReadCSV(strings.NewReader(in), System{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.System.TotalCores != 128 {
		t.Fatalf("inferred capacity %d want 128", tr.System.TotalCores)
	}
}

// TestSWFRejectsInvalidFields pins the parse-time validation added for
// malformed archive files: every rejection names the offending line.
func TestSWFRejectsInvalidFields(t *testing.T) {
	const header = "; MaxProcs: 64\n"
	cases := []struct {
		name, line, want string
	}{
		{"negative submit", "1 -5.0 0.0 1.0 1 -1 -1 1 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "line 2"},
		{"negative run", "1 0.0 0.0 -2.0 1 -1 -1 1 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "line 2"},
		{"zero procs", "1 0.0 0.0 1.0 0 -1 -1 0 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "procs"},
		{"negative procs", "1 0.0 0.0 1.0 -3 -1 -1 -3 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "procs"},
		{"wider than machine", "1 0.0 0.0 1.0 128 -1 -1 128 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "line 2"},
		{"fractional procs", "1 0.0 0.0 1.0 1 -1 -1 .1 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "line 2: procs"},
		{"NaN used procs", "1 0.0 0.0 1.0 NAN -1 -1 0 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "line 2: procs"},
		{"huge procs", "1 0.0 0.0 1.0 1 -1 -1 1e30 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "line 2: procs"},
		{"infinite procs", "1 0.0 0.0 1.0 1 -1 -1 +Inf 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n", "line 2: procs"},
	}
	for _, tc := range cases {
		_, err := ReadSWF(strings.NewReader(header + tc.line))
		if err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSWFProcsFallback: an unusable requested-procs field falls back to
// used procs; only when BOTH are unusable is the line rejected.
func TestSWFProcsFallback(t *testing.T) {
	// reqProcs (field 8) is -1, usedProcs (field 5) is 4.
	in := "; MaxProcs: 64\n1 0.0 0.0 1.0 4 -1 -1 -1 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n"
	tr, err := ReadSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].Procs != 4 {
		t.Fatalf("fallback procs %d want 4", tr.Jobs[0].Procs)
	}
}

// TestSWFUnknownKindHeader: an unrecognized Kind header falls back to the
// zero value instead of failing the parse.
func TestSWFUnknownKindHeader(t *testing.T) {
	in := "; Kind: Quantum\n; MaxProcs: 8\n1 0.0 0.0 1.0 1 -1 -1 1 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n"
	tr, err := ReadSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.System.Kind != HPC || tr.Len() != 1 {
		t.Fatalf("unknown kind handled wrong: %+v", tr.System)
	}
}

// TestSWFTrailingHeaderCapacityCheck: the capacity validation must also
// catch a too-wide job when MaxProcs is declared AFTER the job lines.
func TestSWFTrailingHeaderCapacityCheck(t *testing.T) {
	in := "1 0.0 0.0 1.0 128 -1 -1 128 1.0 -1 1 1 -1 -1 -1 -1 -1 -1\n; MaxProcs: 64\n"
	if _, err := ReadSWF(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("trailing-header capacity violation not caught: %v", err)
	}
}
