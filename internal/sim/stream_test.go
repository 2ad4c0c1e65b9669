package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"crosssched/internal/dist"
	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// streamTrace builds a bursty random trace big enough to exercise queue
// buildup, backfilling, and window compaction.
func streamTrace(n int) *trace.Trace {
	rng := dist.NewRNG(42)
	jobs := make([]trace.Job, n)
	t := 0.0
	for i := range jobs {
		t += rng.Float64() * 30
		wall := 60 + rng.Float64()*4000
		run := wall * (0.2 + 0.8*rng.Float64())
		jobs[i] = trace.Job{
			Submit: t, Run: run, Walltime: wall,
			Procs: 1 + int(rng.Float64()*32), User: i % 17, VC: -1,
		}
	}
	return mk(64, jobs)
}

// errStream yields jobs from a trace until failAfter, then returns failErr.
type errStream struct {
	tr        *trace.Trace
	i         int
	failAfter int
	failErr   error
}

func (s *errStream) System() trace.System { return s.tr.System }

func (s *errStream) Next() (trace.Job, error) {
	if s.i >= s.failAfter {
		return trace.Job{}, s.failErr
	}
	if s.i >= s.tr.Len() {
		return trace.Job{}, io.EOF
	}
	j := s.tr.Jobs[s.i]
	s.i++
	return j, nil
}

// TestStreamMatchesRun: on the same trace, RunStream must reproduce the
// materialized run float for float — the whole Result, with the retired
// rows standing in for Jobs and PromisedStart, and the decision-event
// stream. The exhaustive policy x
// backfill sweep lives in internal/check; this pins the core combos at the
// sim layer.
func TestStreamMatchesRun(t *testing.T) {
	tr := streamTrace(800)
	combos := []Options{
		{Policy: FCFS, Backfill: EASY},
		{Policy: SJF, Backfill: Conservative},
		{Policy: WFP3, Backfill: Relaxed},
		{Policy: Fair, Backfill: AdaptiveRelaxed},
	}
	for _, opt := range combos {
		name := fmt.Sprintf("%v-%v", opt.Policy, opt.Backfill)
		matRec, strRec := &obs.Recorder{}, &obs.Recorder{}
		matOpt, strOpt := opt, opt
		matOpt.Observer = matRec
		strOpt.Observer = strRec
		want, err := Run(tr, matOpt)
		if err != nil {
			t.Fatalf("%s: materialized: %v", name, err)
		}
		var jobs []trace.Job
		var promised []float64
		got, err := RunStream(trace.NewSliceStream(tr), strOpt, func(r StreamRow) error {
			jobs = append(jobs, r.Job)
			promised = append(promised, r.Promised)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: stream: %v", name, err)
		}
		if got.Jobs != nil || got.PromisedStart != nil {
			t.Fatalf("%s: streaming Result must not materialize jobs", name)
		}
		got.Jobs, got.PromisedStart = jobs, promised
		ckSameResult(t, name, got, want)
		if len(strRec.Events) != len(matRec.Events) {
			t.Fatalf("%s: %d events want %d", name, len(strRec.Events), len(matRec.Events))
		}
		for i := range strRec.Events {
			if strRec.Events[i] != matRec.Events[i] {
				t.Fatalf("%s: event %d differs:\n  stream: %+v\n  mat:    %+v",
					name, i, strRec.Events[i], matRec.Events[i])
			}
		}
	}
}

// TestStreamWindowIsBounded: the peak window must track concurrency, not
// trace length — doubling the trace must not change MaxWindowJobs on a
// steady periodic workload, and it must stay far below the job count.
func TestStreamWindowIsBounded(t *testing.T) {
	periodic := func(n int) *trace.Trace {
		jobs := make([]trace.Job, n)
		for i := range jobs {
			jobs[i] = trace.Job{
				Submit: float64(i) * 10, Run: 35, Walltime: 40, Procs: 16,
				User: i % 5, VC: -1,
			}
		}
		return mk(64, jobs)
	}
	peak := func(n int) int64 {
		var met obs.Metrics
		opt := Options{Policy: FCFS, Backfill: EASY, Metrics: &met}
		if _, err := RunStream(trace.NewSliceStream(periodic(n)), opt, nil); err != nil {
			t.Fatal(err)
		}
		if met.JobsRetired != int64(n) {
			t.Fatalf("retired %d want %d", met.JobsRetired, n)
		}
		return met.MaxWindowJobs
	}
	small, large := peak(2000), peak(4000)
	if small != large {
		t.Fatalf("window grew with trace length: %d jobs -> %d, %d jobs -> %d",
			2000, small, 4000, large)
	}
	if small > 64 {
		t.Fatalf("window %d not O(active) for a 4-slot steady workload", small)
	}
}

// TestStreamCompaction: a long run must slide the window along its pages,
// recycling fully retired ones, still matching the materialized run
// exactly. The bursty trace also grows the window by several pages at
// once.
func TestStreamCompaction(t *testing.T) {
	tr := streamTrace(3000)
	want, err := Run(tr, Options{Policy: SJF, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	var met obs.Metrics
	i := 0
	got, err := RunStream(trace.NewSliceStream(tr), Options{Policy: SJF, Backfill: EASY, Metrics: &met},
		func(r StreamRow) error {
			if r.Job != want.Jobs[i] {
				return fmt.Errorf("row %d: %+v want %+v", i, r.Job, want.Jobs[i])
			}
			i++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if i != tr.Len() {
		t.Fatalf("retired %d rows want %d", i, tr.Len())
	}
	if got.AvgWait != want.AvgWait || got.AvgBsld != want.AvgBsld {
		t.Fatalf("aggregates differ: %+v vs %+v", got, want)
	}
	if met.MaxWindowJobs >= int64(tr.Len()) {
		t.Fatalf("window never slid: peak %d of %d jobs", met.MaxWindowJobs, tr.Len())
	}
}

// TestStreamRunnerReuse: a Runner must stay reusable across streaming and
// materialized runs in any order, without cross-contamination.
func TestStreamRunnerReuse(t *testing.T) {
	tr := streamTrace(500)
	r := NewRunner()
	want, err := r.Run(tr, Options{Policy: FCFS, Backfill: EASY})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := r.RunStream(trace.NewSliceStream(tr), Options{Policy: FCFS, Backfill: EASY}, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.AvgWait != want.AvgWait || got.AvgBsld != want.AvgBsld || got.Makespan != want.Makespan {
			t.Fatalf("round %d: streaming drifted: %+v vs %+v", round, got, want)
		}
		again, err := r.Run(tr, Options{Policy: FCFS, Backfill: EASY})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if again.AvgWait != want.AvgWait || len(again.Jobs) != len(want.Jobs) {
			t.Fatalf("round %d: materialized drifted after streaming", round)
		}
	}
}

// TestStreamErrors pins the streaming error paths.
func TestStreamErrors(t *testing.T) {
	tr := streamTrace(100)

	t.Run("faults rejected", func(t *testing.T) {
		cfg := &fault.Config{Seed: 1, MTBF: 1e5, MTTR: 1e3}
		_, err := RunStream(trace.NewSliceStream(tr), Options{Policy: FCFS, Backfill: EASY, Faults: cfg}, nil)
		if err == nil || !strings.Contains(err.Error(), "fault injection") {
			t.Fatalf("want fault-injection rejection, got %v", err)
		}
	})

	t.Run("zero capacity", func(t *testing.T) {
		bad := trace.New(trace.System{Name: "Z"})
		_, err := RunStream(trace.NewSliceStream(bad), Options{Policy: FCFS, Backfill: EASY}, nil)
		if err == nil || !strings.Contains(err.Error(), "capacity") {
			t.Fatalf("want capacity error, got %v", err)
		}
	})

	t.Run("mid-stream read error", func(t *testing.T) {
		cause := errors.New("disk gone")
		var met obs.Metrics
		src := &errStream{tr: tr, failAfter: 50, failErr: cause}
		_, err := RunStream(src, Options{Policy: FCFS, Backfill: EASY, Metrics: &met}, nil)
		if err == nil || !errors.Is(err, cause) {
			t.Fatalf("want wrapped read error, got %v", err)
		}
		if !strings.Contains(err.Error(), "trace stream failed") {
			t.Fatalf("error lacks stream context: %v", err)
		}
		// Partial progress must still be visible.
		if met.Arrivals == 0 || met.JobsRetired == 0 {
			t.Fatalf("partial metrics missing: %+v", met)
		}
	})

	t.Run("sink error", func(t *testing.T) {
		cause := errors.New("sink full")
		_, err := RunStream(trace.NewSliceStream(tr), Options{Policy: FCFS, Backfill: EASY},
			func(StreamRow) error { return cause })
		if err == nil || !errors.Is(err, cause) {
			t.Fatalf("want wrapped sink error, got %v", err)
		}
		if !strings.Contains(err.Error(), "sink failed") {
			t.Fatalf("error lacks sink context: %v", err)
		}
	})

	t.Run("unsorted stream", func(t *testing.T) {
		bad := mk(64, []trace.Job{
			{Submit: 100, Run: 10, Walltime: 10, Procs: 1, VC: -1},
			{Submit: 5, Run: 10, Walltime: 10, Procs: 1, VC: -1},
		})
		// mk sorts, so disorder the copy after the fact.
		bad.Jobs[0].Submit, bad.Jobs[1].Submit = 100, 5
		_, err := RunStream(trace.NewSliceStream(bad), Options{Policy: FCFS, Backfill: EASY}, nil)
		if err == nil || !strings.Contains(err.Error(), "submit order") {
			t.Fatalf("want submit-order error, got %v", err)
		}
	})

	t.Run("invalid job", func(t *testing.T) {
		bad := mk(64, []trace.Job{{Submit: 0, Run: -5, Walltime: 10, Procs: 1, VC: -1}})
		_, err := RunStream(trace.NewSliceStream(bad), Options{Policy: FCFS, Backfill: EASY}, nil)
		if err == nil || !strings.Contains(err.Error(), "negative runtime") {
			t.Fatalf("want validation error, got %v", err)
		}
	})

	t.Run("too wide", func(t *testing.T) {
		bad := mk(64, []trace.Job{{Submit: 0, Run: 5, Walltime: 10, Procs: 128, VC: -1}})
		_, err := RunStream(trace.NewSliceStream(bad), Options{Policy: FCFS, Backfill: EASY}, nil)
		if err == nil || !strings.Contains(err.Error(), "partition") {
			t.Fatalf("want partition-fit error, got %v", err)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var met obs.Metrics
		_, err := RunStreamContext(ctx, trace.NewSliceStream(tr),
			Options{Policy: FCFS, Backfill: EASY, Metrics: &met}, nil)
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if !met.Canceled {
			t.Fatal("metrics did not record cancellation")
		}
	})
}

// TestStreamEmpty: an empty stream completes with a zero result.
func TestStreamEmpty(t *testing.T) {
	empty := trace.New(trace.System{Name: "E", TotalCores: 8})
	res, err := RunStream(trace.NewSliceStream(empty), Options{Policy: FCFS, Backfill: EASY}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgWait != 0 || res.Makespan != 0 || len(res.QueueTimeline) != 0 {
		t.Fatalf("empty stream result not zero: %+v", res)
	}
}
