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
