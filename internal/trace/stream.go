package trace

import "io"

// Stream is a pull iterator over a trace's jobs in submit order. It is the
// bounded-memory counterpart of Trace: million-to-ten-million-job inputs
// (Philly/Helios scale per the paper) flow through a Stream one job at a
// time instead of materializing a []Job.
//
// Contract: System is available before the first Next call (readers parse
// the header prefix eagerly); Next returns jobs with nondecreasing Submit
// and dense IDs (0,1,2,... in stream order, matching what the materialized
// readers produce for already-sorted input); the stream ends with io.EOF.
// Any other error is positional (readers report 1-based line/row numbers)
// and permanently ends the stream.
type Stream interface {
	System() System
	Next() (Job, error)
}

// SliceStream adapts an in-memory Trace to the Stream interface. Jobs are
// yielded verbatim — the trace should already be submit-sorted (readers and
// generators guarantee this) since downstream consumers rely on the Stream
// ordering contract.
type SliceStream struct {
	t *Trace
	i int
}

// NewSliceStream returns a Stream over t's jobs.
func NewSliceStream(t *Trace) *SliceStream { return &SliceStream{t: t} }

// System returns the trace's system description.
func (s *SliceStream) System() System { return s.t.System }

// Next returns the next job, or io.EOF past the end.
func (s *SliceStream) Next() (Job, error) {
	if s.i >= len(s.t.Jobs) {
		return Job{}, io.EOF
	}
	j := s.t.Jobs[s.i]
	s.i++
	return j, nil
}

// Collect drains a stream into a materialized Trace. The System is read
// after the drain so readers that discover metadata during iteration report
// their final view. Intended for tests and small inputs — it defeats the
// purpose of streaming for large traces.
func Collect(s Stream) (*Trace, error) {
	var jobs []Job
	for {
		j, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	t := New(s.System())
	t.Jobs = jobs
	return t, nil
}
