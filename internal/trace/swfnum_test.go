package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkFixed2 fails t when appendFixed2 and fmt's %.2f disagree on x.
func checkFixed2(t *testing.T, x float64) {
	t.Helper()
	got := string(appendFixed2([]byte("prefix "), x))
	if want := "prefix " + fmt.Sprintf("%.2f", x); got != want {
		t.Fatalf("appendFixed2(%v) (bits %#x) = %q, fmt gives %q", x, math.Float64bits(x), got, want)
	}
}

// TestAppendFixed2MatchesFmt pins the SWF writer's fixed-point formatter to
// fmt's %.2f on random bit patterns, on values one ulp either side of the
// n.5/100 rounding ties, around every power of ten, around 2^53 (the last
// exact integers) and the 2^56 cut-over to strconv's 'f' path, on
// subnormals and tiny negatives, and on the special values.
func TestAppendFixed2MatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	// Trace-like magnitudes: times up to a year, with two to four decimals.
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Round(rng.Float64()*3e7*1e4)/math.Pow(10, float64(2+rng.Intn(3))))
	}
	// The ties n.5/100 and their float neighbours, across magnitudes.
	for i := 0; i < 20000; i++ {
		n := rng.Int63n(int64(1) << uint(1+rng.Intn(50)))
		tie := (float64(n) + 0.5) / 100
		xs = append(xs, tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	for k := -5; k <= 22; k++ {
		p := math.Pow(10, float64(k))
		xs = append(xs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)),
			p-0.005, p-0.004, p-0.006, p+0.005)
	}
	for _, p := range []float64{1 << 52, 1 << 53, 1 << 54, 1 << 55, 1 << 56, 1 << 57} {
		xs = append(xs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)),
			math.Nextafter(math.Nextafter(p, 0), 0), p-1, p+2, p-0.5, p-0.25)
	}
	// Subnormals, the smallest normals, and values that round to zero.
	for i := 0; i < 2000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()&(1<<52-1)),
			math.Float64frombits(rng.Uint64()&(1<<53-1)), rng.Float64()*0.01)
	}
	xs = append(xs, 0x1p-1022, math.Nextafter(0x1p-1022, 0), 0.004, 0.0049999, 0.00500001,
		1e-300, 1e-20, 0x1p-60, 0x1p-61, 0x1p-62)
	xs = append(xs, 1e15, math.Nextafter(1e15, 0), math.Nextafter(1e15, math.Inf(1)),
		999999999999999.99, 999999999999999.994, 999999999999999.996,
		9.995, 9.996, 99.995, 99.996, 0.995, 0.005, 0.0049, 1, math.Nextafter(1, 0),
		0.5, 1.005, 2.675, 1.115, math.MaxFloat64, math.SmallestNonzeroFloat64,
		0, math.Inf(1), math.NaN())
	for _, x := range xs {
		checkFixed2(t, x)
		checkFixed2(t, -x)
	}
	for x, want := range map[float64]string{-0.004: "-0.00", -0.005: "-0.01", 0.125: "0.12", 0.375: "0.38", -1e-310: "-0.00"} {
		if got := string(appendFixed2(nil, x)); got != want {
			t.Errorf("appendFixed2(%v) = %q, want %q", x, got, want)
		}
	}
}

// FuzzSWFFixed2 compares appendFixed2 with fmt's %.2f on arbitrary floats.
func FuzzSWFFixed2(f *testing.F) {
	for _, x := range []float64{0, 1, 9.995, 9.996, 1.005, 123456.785, 1e15, 999999999999999.9, 0.125, -1, math.Inf(-1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) { checkFixed2(t, x) })
}

// refParseSWFLine is the SWF job-line parser as it was before the codec's
// fast paths: strings.Fields over the trimmed line, strconv.ParseFloat per
// field. FuzzSWFLineParse holds the scanner and parser to it.
func refParseSWFLine(line string) (header, blank bool, j Job, err error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return false, true, j, nil
	}
	f := strings.Fields(line)
	if strings.HasPrefix(line, ";") {
		return true, false, j, nil
	}
	if len(f) < swfFields {
		return false, false, j, fmt.Errorf("%d fields, want %d", len(f), swfFields)
	}
	get := func(i int) (float64, error) { return strconv.ParseFloat(f[i], 64) }
	id, err := get(0)
	if err != nil {
		return false, false, j, fmt.Errorf("job id: %w", err)
	}
	j.ID = int(id) - 1
	if j.Submit, err = get(1); err != nil {
		return false, false, j, fmt.Errorf("submit: %w", err)
	}
	if j.Submit < 0 {
		return false, false, j, fmt.Errorf("submit: negative time %v", j.Submit)
	}
	if j.Wait, err = get(2); err != nil {
		return false, false, j, fmt.Errorf("wait: %w", err)
	}
	if j.Run, err = get(3); err != nil {
		return false, false, j, fmt.Errorf("run: %w", err)
	}
	if j.Run < 0 {
		return false, false, j, fmt.Errorf("run: negative runtime %v", j.Run)
	}
	procs, err := get(7)
	if err != nil || procs <= 0 {
		procs, err = get(4)
		if err != nil {
			return false, false, j, fmt.Errorf("procs: %w", err)
		}
	}
	if procs <= 0 || math.IsNaN(procs) || procs > math.MaxInt32 || procs != math.Floor(procs) {
		return false, false, j, fmt.Errorf("procs: count %v is not a whole number in [1, %d]", procs, math.MaxInt32)
	}
	j.Procs = int(procs)
	if j.Walltime, err = get(8); err != nil {
		return false, false, j, fmt.Errorf("walltime: %w", err)
	}
	if j.Walltime < 0 {
		j.Walltime = 0
	}
	st, err := get(10)
	if err != nil {
		return false, false, j, fmt.Errorf("status: %w", err)
	}
	switch int(st) {
	case 0:
		j.Status = Failed
	case 5:
		j.Status = Killed
	default:
		j.Status = Passed
	}
	user, err := get(11)
	if err != nil {
		return false, false, j, fmt.Errorf("user: %w", err)
	}
	j.User = int(user) - 1
	if j.User < 0 {
		j.User = 0
	}
	vc, err := get(14)
	if err != nil {
		return false, false, j, fmt.Errorf("vc: %w", err)
	}
	j.VC = int(vc)
	return false, false, j, nil
}

// sameJob compares jobs field by field, floats by bit pattern.
func sameJob(a, b Job) bool {
	fa := [...]float64{a.Submit, a.Wait, a.Run, a.Walltime}
	fb := [...]float64{b.Submit, b.Wait, b.Run, b.Walltime}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.ID == b.ID && a.User == b.User && a.Procs == b.Procs && a.VC == b.VC && a.Status == b.Status
}

// FuzzSWFLineParse holds the SWF readers' scanner (splitFields) and number
// parser (parseSWFNum) to the strings.Fields + strconv.ParseFloat reference
// on arbitrary lines: the same fields, the same numbers bit for bit with
// the same errors, and the same Job or error text. The one allowed
// difference is that a job with a NaN or infinite time is now rejected.
func FuzzSWFLineParse(f *testing.F) {
	f.Add("1 0.00 0.00 10.00 2 -1 -1 2 12.00 -1 1 1 -1 -1 -1 -1 -1 -1\n")
	f.Add("  7 3.25 2.00 100.00 4 -1 -1 4 120.00 -1 0 3 -1 -1 2 -1 -1 -1 extra\r\n")
	f.Add("1 1e3 -0 +5. .5 -1 -1 0x10 1_0 -1 5 1 -1 -1 -1 -1 -1 -1")
	f.Add("1 NaN 0 Inf 1 -1 -1 1 -Inf -1 1 1 -1 -1 -1 -1 -1 -1")
	f.Add("1 12345678901234567890 0.00000000000000000000001 9007199254740993 1 -1 -1 1 1 -1 1 1 -1 -1 -1 -1 -1 -1")
	f.Add("; MaxProcs: 8")
	f.Add("1 2 3\u0085 4\xff 5 6 7 8 9 10 11 12 13 14 15 16 17 18")
	f.Add(" \t\v\f ")
	f.Fuzz(func(t *testing.T, line string) {
		var fields [swfFields][]byte
		nf := splitFields(&fields, []byte(line))
		ref := strings.Fields(line)
		if nf != len(ref) {
			t.Fatalf("splitFields: %d fields, strings.Fields %d", nf, len(ref))
		}
		for i := 0; i < nf && i < swfFields; i++ {
			if string(fields[i]) != ref[i] {
				t.Fatalf("field %d = %q, strings.Fields gives %q", i, fields[i], ref[i])
			}
			got, gotErr := parseSWFNum(fields[i])
			want, wantErr := strconv.ParseFloat(ref[i], 64)
			if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("parseSWFNum(%q) = %v, %v; ParseFloat gives %v, %v", ref[i], got, gotErr, want, wantErr)
			}
		}

		header, blank, want, wantErr := refParseSWFLine(line)
		if blank != (nf == 0) {
			t.Fatalf("blank line: scanner %v, reference %v", nf == 0, blank)
		}
		if blank {
			return
		}
		if header != (fields[0][0] == ';') {
			t.Fatalf("header line: scanner %v, reference %v", fields[0][0] == ';', header)
		}
		if header {
			return
		}
		var got Job
		var gotErr error
		if nf < swfFields {
			gotErr = fmt.Errorf("%d fields, want %d", nf, swfFields)
		} else {
			got, gotErr = parseSWFLine(&fields)
		}
		switch {
		case wantErr != nil:
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %v, reference %v", gotErr, wantErr)
			}
		case gotErr != nil:
			if want.checkFinite() == nil {
				t.Fatalf("rejected %+v (%v); the reference accepts it and its times are finite", want, gotErr)
			}
		case !sameJob(got, want):
			t.Fatalf("job %+v, reference %+v", got, want)
		}
	})
}
