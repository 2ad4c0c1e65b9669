package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// quiet routes stdout to /dev/null for the duration of the test so command
// output does not clutter `go test` output.
func quiet(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunBasicSimulation(t *testing.T) {
	quiet(t)
	if err := run(runConfig{system: "Theta", days: 1, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompare(t *testing.T) {
	quiet(t)
	if err := run(runConfig{system: "Theta", days: 1, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1, compare: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEstimates(t *testing.T) {
	quiet(t)
	if err := run(runConfig{system: "Theta", days: 1, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1, estimates: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAudit exercises the -audit path end to end: the run must pass the
// invariant auditor and (on a trace this small) the oracle comparison.
func TestRunAudit(t *testing.T) {
	quiet(t)
	if err := run(runConfig{system: "Theta", days: 0.5, seed: 1, policy: "SJF", backfill: "relaxed", relax: 0.1, audit: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	quiet(t)
	if err := run(runConfig{system: "Nope", days: 1, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1}); err == nil {
		t.Fatal("unknown system accepted")
	}
	if err := run(runConfig{system: "Theta", days: 1, seed: 1, policy: "BOGUS", backfill: "easy", relax: 0.1}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := run(runConfig{system: "Theta", days: 1, seed: 1, policy: "FCFS", backfill: "bogus", relax: 0.1}); err == nil {
		t.Fatal("unknown backfill accepted")
	}
	if err := run(runConfig{system: "Theta", input: "/does/not/exist.swf", days: 1, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestRunWritesAnnotatedTrace(t *testing.T) {
	quiet(t)
	out := filepath.Join(t.TempDir(), "annotated.swf")
	if err := run(runConfig{system: "Theta", days: 1, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1, out: out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadSWF(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("annotated trace empty")
	}
	for _, j := range tr.Jobs {
		if j.Wait < 0 {
			t.Fatal("annotated trace missing waits")
		}
	}
}

// TestRunBenchMode exercises the -bench diagnosis path (repeat runs +
// timing report) end to end on a small trace.
func TestRunBenchMode(t *testing.T) {
	if err := run(runConfig{system: "Theta", days: 0.25, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1, bench: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestRunGoldenEvents replays the handcrafted testdata trace and compares
// the emitted decision stream byte-for-byte against the committed golden
// JSONL, and the run metrics against the golden JSON (ignoring wall time).
// The stream is deterministic: same trace, same options, same floats.
func TestRunGoldenEvents(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	eventsOut := filepath.Join(dir, "events.jsonl")
	metricsOut := filepath.Join(dir, "metrics.json")
	err := run(runConfig{
		input: "testdata/golden.swf", policy: "FCFS", backfill: "relaxed", relax: 0.1,
		audit: true, eventsOut: eventsOut, metricsOut: metricsOut,
	})
	if err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(eventsOut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden.events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event stream diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	var gotMet, wantMet map[string]interface{}
	gm, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := os.ReadFile("testdata/golden.metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gm, &gotMet); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wm, &wantMet); err != nil {
		t.Fatal(err)
	}
	delete(gotMet, "wall_seconds") // the only nondeterministic field
	delete(wantMet, "wall_seconds")
	if !reflect.DeepEqual(gotMet, wantMet) {
		t.Fatalf("metrics diverged from golden:\n got %v\nwant %v", gotMet, wantMet)
	}
}

// TestRunAuditKeepsEventsFile: -audit verifies the run by rerunning the
// simulator, and none of those reruns may reach the CLI's observers — the
// -events-out file must be byte-identical with and without -audit.
func TestRunAuditKeepsEventsFile(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	events := func(audit bool) []byte {
		path := filepath.Join(dir, fmt.Sprintf("events-%v.jsonl", audit))
		err := run(runConfig{
			system: "Theta", days: 1, seed: 1, policy: "SJF", backfill: "relaxed", relax: 0.1,
			audit: audit, eventsOut: path, progress: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain, audited := events(false), events(true)
	if len(plain) == 0 {
		t.Fatal("no events written")
	}
	if !bytes.Equal(audited, plain) {
		t.Fatalf("-audit changed the events file: %d lines vs %d without",
			bytes.Count(audited, []byte("\n")), bytes.Count(plain, []byte("\n")))
	}
}

// TestRunTimeout: an absurdly short -timeout must abort the run with a
// deadline error instead of completing.
func TestRunTimeout(t *testing.T) {
	quiet(t)
	err := run(runConfig{
		system: "Theta", days: 4, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1,
		timeout: time.Nanosecond,
	})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestRunEventsAndProgress covers the -events-out/-progress plumbing on a
// synthetic trace: the JSONL must decode to a stream the auditor accepts.
func TestRunEventsAndProgress(t *testing.T) {
	quiet(t)
	eventsOut := filepath.Join(t.TempDir(), "events.jsonl")
	err := run(runConfig{
		system: "Theta", days: 0.25, seed: 1, policy: "SJF", backfill: "easy", relax: 0.1,
		eventsOut: eventsOut, progress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(eventsOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events written")
	}
}

// TestRunWithFaults drives the -faults path end to end, including the
// fault-aware -audit pipeline (stream auditor + oracle comparison).
func TestRunWithFaults(t *testing.T) {
	quiet(t)
	err := run(runConfig{
		system: "Theta", days: 0.3, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1,
		faults: "mtbf=20000,mttr=4000,frac=0.3,pint=0.05,recovery=requeue,retry=2", audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunDegradedSweep drives the -degraded mode with checkpoint recovery
// taken from the -faults spec.
func TestRunDegradedSweep(t *testing.T) {
	quiet(t)
	err := run(runConfig{
		system: "Theta", days: 0.25, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1,
		degraded: true, faults: "pint=0.01,recovery=checkpoint,ckpt=600",
		parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFaultFlags(t *testing.T) {
	quiet(t)
	base := runConfig{system: "Theta", days: 0.25, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1}
	bad := base
	bad.faults = "bogus"
	if err := run(bad); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
	bad = base
	bad.faults = "down=7:0:3600:16" // Theta has a single partition
	if err := run(bad); err == nil {
		t.Fatal("out-of-range fault partition accepted")
	} else if !strings.Contains(err.Error(), "partition") {
		t.Fatalf("partition error not actionable: %v", err)
	}
	bad = base
	bad.faults = "pint=0.1,recovery=checkpoint" // no interval
	if err := run(bad); err == nil {
		t.Fatal("checkpoint recovery without an interval accepted")
	}
}

// TestRunStreamMode: -stream replays a synthetic workload out-of-core; its
// metrics, events, and per-job rows must land on disk, with JobsRetired and
// MaxWindowJobs showing the window actually slid.
func TestRunStreamMode(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	rows := filepath.Join(dir, "rows.jsonl")
	mets := filepath.Join(dir, "met.json")
	cfg := runConfig{system: "Theta", days: 1, seed: 1, policy: "SJF", backfill: "easy", relax: 0.1,
		stream: true, rowsOut: rows, metricsOut: mets}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(mets)
	if err != nil {
		t.Fatal(err)
	}
	var met obs.Metrics
	if err := json.Unmarshal(raw, &met); err != nil {
		t.Fatal(err)
	}
	if met.JobsRetired == 0 || met.MaxWindowJobs == 0 || met.MaxWindowJobs >= met.JobsRetired {
		t.Fatalf("streaming gauges wrong: retired %d, window peak %d", met.JobsRetired, met.MaxWindowJobs)
	}
	data, err := os.ReadFile(rows)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if int64(len(lines)) != met.JobsRetired {
		t.Fatalf("%d row lines for %d retired jobs", len(lines), met.JobsRetired)
	}
	var row struct {
		ID   int     `json:"id"`
		Wait float64 `json:"wait"`
	}
	if err := json.Unmarshal(lines[0], &row); err != nil {
		t.Fatalf("row 0 not JSON: %v", err)
	}
	if row.Wait < 0 {
		t.Fatalf("row 0 has negative wait: %+v", row)
	}
}

// TestRunStreamFromSWF: -stream -input reads the SWF without materializing.
func TestRunStreamFromSWF(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.swf")
	if err := run(runConfig{system: "Theta", days: 0.5, seed: 2, policy: "FCFS", backfill: "easy", relax: 0.1, out: in}); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{input: in, policy: "FCFS", backfill: "conservative", relax: 0.1, stream: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunStreamRejectsIncompatibleModes: every mode that needs the whole
// trace in memory must refuse -stream with an actionable message.
func TestRunStreamRejectsIncompatibleModes(t *testing.T) {
	quiet(t)
	base := runConfig{system: "Theta", days: 0.5, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1, stream: true}
	cases := []struct {
		name string
		mut  func(*runConfig)
		want string
	}{
		{"matrix", func(c *runConfig) { c.matrix = true }, "batch modes"},
		{"compare", func(c *runConfig) { c.compare = true }, "batch modes"},
		{"audit", func(c *runConfig) { c.audit = true }, "audit"},
		{"faults", func(c *runConfig) { c.faults = "pint=0.1,seed=1" }, "fault injection"},
		{"out", func(c *runConfig) { c.out = "x.swf" }, "-rows-out"},
		{"bench", func(c *runConfig) { c.bench = 3 }, "-bench"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		err := run(cfg)
		if err == nil {
			t.Fatalf("%s: -stream accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error not actionable: %v", tc.name, err)
		}
	}
	// -rows-out without -stream is an error too.
	if err := run(runConfig{system: "Theta", days: 0.5, seed: 1, policy: "FCFS", backfill: "easy", relax: 0.1, rowsOut: "x.jsonl"}); err == nil {
		t.Fatal("-rows-out accepted without -stream")
	}
}
