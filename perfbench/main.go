// Command perfbench is the repository's end-to-end benchmark. It drives the
// shipped binaries (tracegen, schedsim, lumosweb) offline through one of
// two workloads, checks every output against an in-process reference,
// and prints the end-to-end metrics; with -trace 1 it additionally times
// calls into each layer's public functions from this package and prints
// the per-layer metrics instead.
//
// Usage (from the repository root; perfbench/run.sh builds everything):
//
//	bash perfbench/run.sh --workload helios-deep --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh compare before/ after/
//
// The last line of standard output is the result object; the line before
// it is a record carrying the workload, seed and host, which the compare
// mode reads back. See README.md in this directory for the workloads and
// the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "calibrate" {
		os.Exit(calibrateMain())
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: every input is drawn from it")
		seconds = flag.Int("seconds", 40, "measured seconds per run, split across the workload's stages")
		traced  = flag.Int("trace", 0, "1 = also run the in-process layer-timed passes and print per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding tracegen, schedsim and lumosweb")
		workDir = flag.String("work", ".bench_build/work", "scratch directory for traces and state directories")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	r, err := newRun(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *binDir, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := r.execute()
	r.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec := record{Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *traced == 1, Host: hostInfo(), Result: res}
	line, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	fmt.Println(string(out))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the line before the result: what ran, where, and the result
// itself, so a saved log is a self-describing compare input.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Host     host   `json:"host"`
	Result   result `json:"result"`
}

// run is one benchmark invocation: the workload, its seed-derived inputs,
// the operation tally and the metrics collected so far.
type run struct {
	w       workload
	seed    uint64
	budget  time.Duration
	traced  bool
	bin     string
	work    string
	ops     tally
	metrics map[string]metric
	// unbounded are end-to-end figures too sensitive to the shared host
	// to bound (wall-clock rates and latencies, the server's peak RSS):
	// only the traced run prints them, beside the per-layer metrics.
	unbounded map[string]metric
	// calib holds the calibration kernel's CPU times (ms).
	calib samples

	// plainDur and tracedDur sum the paired in-process passes' wall times
	// without and with layer timers.
	plainDur, tracedDur time.Duration
}

func newRun(w workload, seed uint64, budget time.Duration, traced bool, binDir, workDir string) (*run, error) {
	for _, b := range []string{"tracegen", "schedsim", "lumosweb"} {
		if _, err := os.Stat(filepath.Join(binDir, b)); err != nil {
			return nil, fmt.Errorf("missing binary (build with perfbench/run.sh): %w", err)
		}
	}
	work := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &run{w: w, seed: seed, budget: budget, traced: traced, bin: binDir, work: work,
		metrics: map[string]metric{}, unbounded: map[string]metric{}}, nil
}

func (r *run) cleanup() { _ = os.RemoveAll(r.work) }

// share converts a fraction of the run's measured seconds to a duration.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * float64(r.budget))
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) setUnbounded(name, unit string, v float64) {
	r.unbounded[name] = metric{Value: v, Unit: unit}
}

// execute runs the trace stage and the twin stage, which set the
// end-to-end metrics; a traced run then runs the in-process layer passes,
// whose per-layer metrics replace them in the output.
func (r *run) execute() (result, error) {
	ts, err := r.traceStage()
	if err != nil {
		return result{}, err
	}
	tw, err := r.twinStage()
	if err != nil {
		return result{}, err
	}
	if r.traced {
		r.metrics = map[string]metric{}
		if err := r.traceLayers(ts); err != nil {
			return result{}, err
		}
		if err := r.twinLayers(tw); err != nil {
			return result{}, err
		}
		for name, m := range r.unbounded {
			r.metrics[name] = m
		}
		r.set("bench.lateness_ms.p99", "ms", tw.lateness.pct(0.99))
		r.set("bench.calib_ms.p50", "ms", r.calib.pct(0.5))
		r.set("bench.trace_overhead_pct", "%", r.overheadPct())
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.ops.fail(fmt.Errorf("metric %s is %v", name, m.Value))
			r.metrics[name] = metric{Value: -1, Unit: m.Unit}
		}
	}
	res := result{Attempted: r.ops.attempted.Load(), Failed: r.ops.failed.Load(), Metrics: r.metrics}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, res.Failed+1
	}
	res.Correct = res.Failed == 0
	r.ops.report()
	return res, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
