package trace_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// The SWF codec benchmarks run on a 10-day synthetic Helios trace (~69k
// jobs), the trace a `tracegen -stream | schedsim -stream` pipeline streams.

var heliosSWF = sync.OnceValues(func() (*trace.Trace, []byte) {
	tr, err := synth.Helios(10).Generate(1)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteSWF(&buf, tr); err != nil {
		panic(err)
	}
	return tr, buf.Bytes()
})

// BenchmarkSWFWrite measures the SWF writer: one op writes the whole trace.
func BenchmarkSWFWrite(b *testing.B) {
	tr, _ := heliosSWF()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteSWF(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSWFStreamRead measures the streaming SWF reader: one op drains
// the whole trace.
func BenchmarkSWFStreamRead(b *testing.B) {
	tr, data := heliosSWF()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := drainSWFStream(data)
		if err != nil {
			b.Fatal(err)
		}
		if n != tr.Len() {
			b.Fatalf("read %d jobs, want %d", n, tr.Len())
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// TestSWFStreamReadAllocs pins BenchmarkSWFStreamRead's allocation count:
// draining the 69k-job trace allocates only the reader's fixed buffers, so
// one allocation per line would show up as tens of thousands.
func TestSWFStreamReadAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	_, data := heliosSWF()
	var readErr error
	got := testing.AllocsPerRun(20, func() {
		if _, err := drainSWFStream(data); err != nil {
			readErr = err
		}
	})
	if readErr != nil {
		t.Fatal(readErr)
	}
	if got != 11 {
		t.Errorf("%v allocs per drained trace, want 11", got)
	}
}

// BenchmarkGenerateWriteHelios measures what one `tracegen -stream` run
// does in process: one op generates a 10-day Helios trace (seed 1, ~69k
// jobs) and writes it as SWF.
func BenchmarkGenerateWriteHelios(b *testing.B) {
	p := synth.Helios(10)
	jobs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := generateWriteSWF(p)
		if err != nil {
			b.Fatal(err)
		}
		jobs += n
	}
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
}

// TestGenerateWriteAllocs bounds BenchmarkGenerateWriteHelios's
// allocations: generating and writing a trace allocates the generator's
// state and buffers, which grow with the shadow backlog, not one object per
// job. The bound is 0.1 allocations per job.
func TestGenerateWriteAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	p := synth.Helios(10)
	var jobs int
	var runErr error
	got := testing.AllocsPerRun(3, func() {
		jobs, runErr = generateWriteSWF(p)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got > 0.1*float64(jobs) {
		t.Errorf("%v allocs to generate and write %d jobs, want at most %v (0.1 per job)", got, jobs, 0.1*float64(jobs))
	}
}

// generateWriteSWF streams p's trace for seed 1 into an SWF writer on
// io.Discard and returns the job count.
func generateWriteSWF(p *synth.Profile) (int, error) {
	s, err := p.Stream(1)
	if err != nil {
		return 0, err
	}
	return trace.WriteSWFStream(io.Discard, s)
}

// drainSWFStream reads an SWF trace through the streaming reader and
// returns its job count.
func drainSWFStream(data []byte) (int, error) {
	s, err := trace.NewSWFStream(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := s.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n++
	}
}
