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
		s, err := trace.NewSWFStream(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != tr.Len() {
			b.Fatalf("read %d jobs, want %d", n, tr.Len())
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "jobs/s")
}
