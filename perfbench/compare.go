package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain reads two result sets — files or directories of saved
// benchmark output — and prints, per (workload, metric), each side's
// median and quartiles and a verdict. It exits 1 when any bounded metric
// got worse by more than its bound.
func compareMain(args []string) int {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] BEFORE AFTER  (files or directories of saved output)")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", *specPath, err)
		return 2
	}
	before, err := loadRecords(fset.Arg(0))
	if err == nil && len(before) == 0 {
		err = fmt.Errorf("no records in %s", fset.Arg(0))
	}
	var after []record
	if err == nil {
		after, err = loadRecords(fset.Arg(1))
		if err == nil && len(after) == 0 {
			err = fmt.Errorf("no records in %s", fset.Arg(1))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	rows, worse := compareSets(spec, before, after)
	fmt.Print(rows)
	if worse {
		return 1
	}
	return 0
}

// loadRecords collects every record line from a file or, recursively,
// from every file in a directory.
func loadRecords(path string) ([]record, error) {
	var out []record
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !strings.HasPrefix(string(line), `{"record":`) {
				continue
			}
			var wrap struct {
				Record record `json:"record"`
			}
			if err := json.Unmarshal(line, &wrap); err == nil {
				out = append(out, wrap.Record)
			}
		}
		return sc.Err()
	})
	return out, err
}

// compareSets renders the comparison table; worse reports whether any
// bounded metric regressed beyond its bound.
func compareSets(spec benchSpec, before, after []record) (string, bool) {
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		specs[m.Name] = m
	}
	type key struct{ workload, metric string }
	values := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, rec := range recs {
			for name, m := range rec.Result.Metrics {
				k := key{rec.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	a, b := values(before), values(after)
	var keys []key
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var sb strings.Builder
	anyWorse := false
	fmt.Fprintf(&sb, "%-18s %-32s %-34s %-34s %8s  %s\n", "workload", "metric", "before median [q1 q3] n", "after median [q1 q3] n", "change", "verdict")
	for _, k := range keys {
		ms := specs[k.metric]
		v := verdict(ms, a[k], b[k])
		if v == "worse" && ms.Bound > 0 {
			anyWorse = true
		}
		fmt.Fprintf(&sb, "%-18s %-32s %-34s %-34s %+7.1f%%  %s\n", k.workload, k.metric,
			summary(a[k]), summary(b[k]), 100*relChange(a[k], b[k]), v)
	}
	return sb.String(), anyWorse
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method); a single value is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func summary(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", q2, q1, q3, len(v))
}

func relChange(a, b []float64) float64 {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return 0
	}
	return (mb - ma) / math.Abs(ma)
}

// verdict classifies one (workload, metric) pair:
//
//   - unresolved: the wider side's quartile spread exceeds the bound and
//     the two sets overlap;
//   - worse: the median moved the wrong way by more than the bound (for
//     unbounded metrics, every after value is worse than every before one);
//   - better: the median moved the right way by more than the before
//     set's own spread and the after set's worse quartile beats the
//     before set's better quartile;
//   - within-bound otherwise.
func verdict(ms metricSpec, a, b []float64) string {
	sign := 1.0 // +1: a rise is worse
	if ms.Better == "higher" {
		sign = -1
	}
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	worse := sign * relChange(a, b)
	spreadA := spreadOf(a1, am, a3)
	spread := math.Max(spreadA, spreadOf(b1, bm, b3))
	lo, hi := extent(a)
	blo, bhi := extent(b)
	separatedWorse := (sign > 0 && blo > hi) || (sign < 0 && bhi < lo)
	separatedBetter := (sign > 0 && bhi < lo) || (sign < 0 && blo > hi)
	bound := ms.Bound
	if bound == 0 {
		switch {
		case separatedWorse:
			return "worse"
		case separatedBetter:
			return "better"
		}
		return "unresolved"
	}
	if spread > bound && !separatedWorse && !separatedBetter {
		return "unresolved"
	}
	// The after set's worse quartile against the before set's better one.
	bWorseQ, aBetterQ := b3, a1
	if sign < 0 {
		bWorseQ, aBetterQ = b1, a3
	}
	switch {
	case worse > bound || (separatedWorse && spread > bound):
		return "worse"
	case -worse > spreadA && sign*(bWorseQ-aBetterQ) < 0:
		return "better"
	}
	return "within-bound"
}

func spreadOf(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func extent(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
