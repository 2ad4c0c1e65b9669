package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crosssched/internal/stats"
)

// tally counts operations attempted and failed. A failed operation is an
// error, a non-2xx reply, or an output that does not match its reference.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	first []string // the first few failures, for stderr
}

func (t *tally) ok() { t.attempted.Add(1) }

// fail counts one failed operation (attempted too).
func (t *tally) fail(err error) {
	t.attempted.Add(1)
	t.mismatch(err)
}

// mismatch counts a failed check on an operation already counted.
func (t *tally) mismatch(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < 5 {
		t.first = append(t.first, err.Error())
	}
	t.mu.Unlock()
}

func (t *tally) report() {
	fmt.Fprintf(os.Stderr, "perfbench: %d operations attempted, %d failed\n", t.attempted.Load(), t.failed.Load())
	for _, e := range t.first {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
}

// samples holds timings in milliseconds (or any unit) for percentiles.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

// pct returns the p-quantile by linear interpolation between closest
// ranks; 0 when there are no samples.
func (s *samples) pct(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stats.Quantile(s.v, p)
}

// timedSamples are latencies (ms) tagged with when, in seconds into the
// phase, each request was due.
type timedSamples struct {
	mu    sync.Mutex
	at, v []float64
}

func (s *timedSamples) add(at, v float64) {
	s.mu.Lock()
	s.at = append(s.at, at)
	s.v = append(s.v, v)
	s.mu.Unlock()
}

func (s *timedSamples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// latencyWindows is how many equal windows a phase's latencies are split
// into by due time.
const latencyWindows = 5

// windowPct is the median over latencyWindows equal windows of the phase
// of each window's p-quantile, so a stall of the shared host that covers
// fewer than half the windows does not move it.
func (s *timedSamples) windowPct(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var span float64
	for _, t := range s.at {
		span = max(span, t)
	}
	per := make([][]float64, latencyWindows)
	for i, t := range s.at {
		w := min(int(t/span*latencyWindows), latencyWindows-1)
		per[w] = append(per[w], s.v[i])
	}
	var q []float64
	for _, v := range per {
		if len(v) > 0 {
			q = append(q, stats.Quantile(v, p))
		}
	}
	return stats.Median(q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// proc is what a finished program's wait reported.
type proc struct {
	wall   time.Duration
	cpu    time.Duration // user + system, from the kernel's rusage at exit
	maxRSS float64       // MB, likewise
}

// runProc runs a program to completion, capturing stdout and stderr.
func runProc(name string, args ...string) (*proc, string, string, error) {
	var stdout, stderr strings.Builder
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	p := &proc{wall: time.Since(start), cpu: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		maxRSS: maxRSSMB(cmd.ProcessState)}
	if err != nil {
		return p, stdout.String(), stderr.String(), fmt.Errorf("%s: %w: %s", filepath.Base(name), err, strings.TrimSpace(stderr.String()))
	}
	return p, stdout.String(), stderr.String(), nil
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// userHZ is the unit of /proc's CPU times: fixed at 100 per second in
// Linux's user ABI whatever the kernel's tick rate.
const userHZ = 100

// procCPU returns a running process's user + system CPU time so far,
// exited threads included, from /proc/<pid>/stat. With the kernel's
// paravirtual time accounting, time the hypervisor stole is not in it.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields 14 and 15,
	// utime and stime, follow its closing parenthesis as 12th and 13th.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ut, st int64
	if _, err := fmt.Sscan(f[11]+" "+f[12], &ut, &st); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// procPeakRSS returns a running process's peak resident set so far (MB,
// VmHWM in /proc/<pid>/status).
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(v, &kb); err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

func sha256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<20)); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyTree copies a directory of regular files (a twin state directory).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// host describes where a result was measured; a claim without the core
// count does not count.
type host struct {
	NProc            int    `json:"nproc"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	BenchGOMAXPROCS  int    `json:"generator_gomaxprocs"`
	CPU              string `json:"cpu"`
	GoVersion        string `json:"go"`
	Commit           string `json:"commit"`
	SourceSHA256     string `json:"source_sha256"`
}

func hostInfo() host {
	h := host{
		NProc:           runtime.NumCPU(),
		BenchGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		CPU:             cpuModel(),
		Commit:          "unknown",
	}
	// Children inherit the environment; before Go 1.25 an unset GOMAXPROCS
	// means the CPU count, whatever the container's quota.
	h.ServerGOMAXPROCS = h.NProc
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		fmt.Sscan(v, &h.ServerGOMAXPROCS)
	}
	// git must not look above the checkout for a repository.
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.SourceSHA256 = sourceDigest(".")
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the module's Go sources and go.mod files, naming the
// code measured when the checkout is not a git repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the host's aggregate CPU tick counters (user, nice,
// system, idle, iowait, irq, softirq, steal) from /proc/stat.
func cpuTimes() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		var v float64
		fmt.Sscan(f, &v)
		out = append(out, v)
	}
	return out
}

// hostNoise describes, as shares of all CPU time since before, what the
// host spent waiting on I/O and what the hypervisor stole, and how busy it
// was: context for a run whose numbers look off.
func hostNoise(before []float64) string {
	after := cpuTimes()
	if len(before) < 8 || len(after) < 8 {
		return "unavailable"
	}
	var total float64
	d := make([]float64, 8)
	for i := range d {
		d[i] = after[i] - before[i]
		total += d[i]
	}
	if total <= 0 {
		return "unavailable"
	}
	return fmt.Sprintf("busy %.0f%%, iowait %.1f%%, steal %.1f%%", 100*(total-d[3]-d[4])/total, 100*d[4]/total, 100*d[7]/total)
}
