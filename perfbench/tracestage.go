package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crosssched/internal/sim"
	"crosssched/internal/stats"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// traceInputs are the trace stage's distinct traces.
type traceInputs struct {
	seeds []uint64
	files []string
	jobs  []int // jobs in each trace, as tracegen reported
}

// traceStage times `tracegen -stream` writing each trace and
// `schedsim -stream` replaying it under FCFS + EASY, cycling through the
// distinct traces until the stage's share of the run has passed (at least
// one full cycle). Rates are jobs per CPU second of the child (user +
// system, which leaves out the time the hypervisor stole), scaled to the
// reference host by a calibration run before each pair; the wall-clock
// rates go to the traced run. Every tracegen output must hash like the in-process
// synth -> trace.WriteSWFStream of the same profile and seed, and every
// schedsim aggregate must equal a materialized sim.Run of the same file.
func (r *run) traceStage() (*traceInputs, error) {
	w := r.w
	in := &traceInputs{jobs: make([]int, w.Traces)}
	for k := 0; k < w.Traces; k++ {
		in.seeds = append(in.seeds, splitmix(r.seed*1000+uint64(k)))
		in.files = append(in.files, filepath.Join(r.work, fmt.Sprintf("trace-%d.swf", k)))
	}
	digests := make([][]string, w.Traces)
	outputs := make([][]string, w.Traces)
	var simRSS, genWall, simWall []float64
	var genJobs, simJobs, genCPU, simCPU float64
	var slows []float64
	noise := cpuTimes()
	deadline := time.Now().Add(r.share(w.TraceShare))
	for i := 0; i < w.Traces || time.Now().Before(deadline); i++ {
		k := i % w.Traces
		slow, err := r.calibrate()
		if err != nil {
			return nil, err
		}
		slows = append(slows, slow)
		p, _, stderr, err := runProc(filepath.Join(r.bin, "tracegen"), "-system", w.Profile,
			"-days", strconv.FormatFloat(w.Days, 'g', -1, 64), "-seed", strconv.FormatUint(in.seeds[k], 10),
			"-stream", "-o", in.files[k])
		var n int
		if err == nil {
			_, err = fmt.Sscanf(stderr, "tracegen: wrote %d jobs", &n)
		}
		if err != nil {
			r.ops.fail(fmt.Errorf("tracegen: %w", err))
			continue
		}
		r.ops.ok()
		in.jobs[k] = n
		genJobs += float64(n)
		genCPU += p.cpu.Seconds()
		genWall = append(genWall, float64(n)/p.wall.Seconds())
		d, err := sha256File(in.files[k])
		if err != nil {
			return nil, err
		}
		digests[k] = append(digests[k], d)

		p, stdout, _, err := runProc(filepath.Join(r.bin, "schedsim"), "-stream", "-input", in.files[k],
			"-policy", "FCFS", "-backfill", "easy")
		if err != nil {
			r.ops.fail(err)
			continue
		}
		r.ops.ok()
		simJobs += float64(n)
		simCPU += p.cpu.Seconds()
		simWall = append(simWall, float64(n)/p.wall.Seconds())
		simRSS = append(simRSS, p.maxRSS)
		outputs[k] = append(outputs[k], schedsimAggregates(stdout))
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace stage: %d runs over %d traces; host %s\n", len(genWall), w.Traces, hostNoise(noise))
	slow := stats.Mean(slows)
	fmt.Fprintf(os.Stderr, "perfbench: trace stage: calibration %.3f of the reference host's speed; jobs per CPU second: gen %.0f, sim %.0f\n",
		1/slow, genJobs/genCPU, simJobs/simCPU)
	r.set("gen_jobs_per_ref_s", "1/s", genJobs/genCPU*slow)
	r.set("sim_jobs_per_ref_s", "1/s", simJobs/simCPU*slow)
	r.set("sim_peak_rss_mb", "MB", stats.Median(simRSS))
	r.setUnbounded("wall.gen_jobs_per_s", "1/s", stats.Median(genWall))
	r.setUnbounded("wall.sim_jobs_per_s", "1/s", stats.Median(simWall))

	// The checks run on nproc workers after the timed loop.
	ks := make(chan int)
	errs := make(chan error, runtime.NumCPU())
	for range runtime.NumCPU() {
		go func() {
			var err error
			for k := range ks {
				if err == nil {
					err = r.checkTrace(in, k, digests[k], outputs[k])
				}
			}
			errs <- err
		}()
	}
	for k := range in.seeds {
		ks <- k
	}
	close(ks)
	var err error
	for range runtime.NumCPU() {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// checkTrace checks trace k's tracegen digests against the in-process
// generator and its schedsim aggregates against a materialized sim.Run.
// Only the first trace's file is kept, for the traced run.
func (r *run) checkTrace(in *traceInputs, k int, digests, outputs []string) error {
	want, err := r.generateDigest(in.seeds[k])
	if err != nil {
		return err
	}
	for _, d := range digests {
		if d != want {
			r.ops.mismatch(fmt.Errorf("tracegen output for seed %d hashes %s, in-process synth gives %s", in.seeds[k], d, want))
		}
	}
	if len(outputs) > 0 {
		ref, err := materializedAggregates(in.files[k])
		if err != nil {
			return err
		}
		for _, got := range outputs {
			if got != ref {
				r.ops.mismatch(fmt.Errorf("schedsim -stream aggregates differ from a materialized sim.Run:\n%s\nwant\n%s", got, ref))
			}
		}
	}
	if k > 0 {
		return os.Remove(in.files[k])
	}
	return nil
}

// genStream opens the generator stream `tracegen -stream` writes.
func (r *run) genStream(seed uint64) (trace.Stream, error) {
	p, err := synth.ByName(r.w.Profile, r.w.Days)
	if err != nil {
		return nil, err
	}
	return p.Stream(seed)
}

// generateDigest runs synth -> trace.WriteSWFStream in process and returns
// the output's SHA-256.
func (r *run) generateDigest(seed uint64) (string, error) {
	s, err := r.genStream(seed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if _, err := trace.WriteSWFStream(h, s); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// aggregateLines are the schedsim -stream report lines a materialized run
// must reproduce exactly.
var aggregateLines = []string{"  avg wait", "  avg bsld", "  utilization", "  violations", "  backfilled jobs", "  max queue", "  makespan"}

// schedsimAggregates extracts the job count and aggregate lines from
// schedsim -stream's report.
func schedsimAggregates(stdout string) string {
	lines := strings.Split(stdout, "\n")
	var b strings.Builder
	if len(lines) > 0 {
		if _, rest, ok := strings.Cut(lines[0], ": "); ok {
			n, _, _ := strings.Cut(rest, " ")
			fmt.Fprintf(&b, "jobs %s\n", n)
		}
	}
	for _, l := range lines {
		for _, p := range aggregateLines {
			if strings.HasPrefix(l, p) {
				b.WriteString(l + "\n")
			}
		}
	}
	return b.String()
}

// materializedAggregates reads the whole file and runs sim.Run under the
// same options, formatted like schedsim's report.
func materializedAggregates(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	tr, err := trace.ReadSWF(f)
	if err != nil {
		return "", err
	}
	res, err := sim.Run(tr, sim.Options{Policy: sim.FCFS, Backfill: sim.EASY, RelaxFactor: 0.10})
	if err != nil {
		return "", err
	}
	return formatAggregates(tr.Len(), res), nil
}

func formatAggregates(n int, res *sim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "jobs %d\n", n)
	fmt.Fprintf(&b, "  avg wait        %.2f s\n", res.AvgWait)
	fmt.Fprintf(&b, "  avg bsld        %.2f\n", res.AvgBsld)
	fmt.Fprintf(&b, "  utilization     %.4f\n", res.Utilization)
	fmt.Fprintf(&b, "  violations      %d (total delay %.0f s)\n", res.Violations, res.ViolationDelay)
	fmt.Fprintf(&b, "  backfilled jobs %d\n", res.Backfilled)
	fmt.Fprintf(&b, "  max queue       %d\n", res.MaxQueueLen)
	fmt.Fprintf(&b, "  makespan        %.0f s\n", res.Makespan)
	return b.String()
}

// splitmix derives independent seeds from one.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
