package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The Standard Workload Format (SWF) is the interchange format of the
// Parallel Workloads Archive, which the HPC traces in the paper descend
// from. We read/write the 18-field SWF line and carry the paper's
// three-way status in the SWF status field:
//
//	1 = completed (Passed), 0 = failed (Failed), 5 = cancelled (Killed)
//
// plus header comments (";") recording the system description so a round
// trip preserves the trace.

const swfFields = 18

// SWFWriter serializes jobs to SWF incrementally, so a generator or a
// windowed simulation can emit a multi-million-job file without holding a
// []Job. The system header is written on construction; errors are sticky
// and re-reported by every subsequent call, so checking Flush at the end
// suffices.
type SWFWriter struct {
	bw  *bufio.Writer
	buf []byte // the line being built, reused across Write calls
	err error
}

// NewSWFWriter writes the metadata header for sys and returns a writer for
// the job lines.
func NewSWFWriter(w io.Writer, sys System) *SWFWriter {
	sw := &SWFWriter{bw: bufio.NewWriter(w)}
	fmt.Fprintf(sw.bw, "; Computer: %s\n", sys.Name)
	fmt.Fprintf(sw.bw, "; Kind: %s\n", sys.Kind)
	fmt.Fprintf(sw.bw, "; MaxProcs: %d\n", sys.TotalCores)
	fmt.Fprintf(sw.bw, "; CoresPerNode: %d\n", sys.CoresPerNode)
	fmt.Fprintf(sw.bw, "; VirtualClusters: %d\n", sys.VirtualClusters)
	fmt.Fprintf(sw.bw, "; StartHour: %d\n", sys.StartHour)
	return sw
}

// Write appends one job line.
func (sw *SWFWriter) Write(j *Job) error {
	if sw.err != nil {
		return sw.err
	}
	status := int64(1)
	switch j.Status {
	case Failed:
		status = 0
	case Killed:
		status = 5
	}
	wait := j.Wait
	if wait < 0 {
		wait = -1
	}
	// Fields: job# submit wait run usedProcs avgCPU usedMem reqProcs
	// reqTime reqMem status user group app queue partition prevJob think.
	// Byte-identical to the format
	// "%d %.2f %.2f %.2f %d -1 -1 %d %.2f -1 %d %d -1 -1 %d -1 -1 -1\n".
	b := strconv.AppendInt(sw.buf[:0], int64(j.ID+1), 10)
	b = append(b, ' ')
	b = appendFixed2(b, j.Submit)
	b = append(b, ' ')
	b = appendFixed2(b, wait)
	b = append(b, ' ')
	b = appendFixed2(b, j.Run)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(j.Procs), 10)
	b = append(b, " -1 -1 "...)
	b = strconv.AppendInt(b, int64(j.Procs), 10)
	b = append(b, ' ')
	b = appendFixed2(b, j.Walltime)
	b = append(b, " -1 "...)
	b = strconv.AppendInt(b, status, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(j.User+1), 10)
	b = append(b, " -1 -1 "...)
	b = strconv.AppendInt(b, int64(j.VC), 10)
	b = append(b, " -1 -1 -1\n"...)
	sw.buf = b
	_, sw.err = sw.bw.Write(b)
	return sw.err
}

// Flush drains the buffer and returns the first error encountered.
func (sw *SWFWriter) Flush() error {
	if sw.err != nil {
		return sw.err
	}
	sw.err = sw.bw.Flush()
	return sw.err
}

// WriteSWF serializes the trace in SWF with a metadata header.
func WriteSWF(w io.Writer, t *Trace) error {
	sw := NewSWFWriter(w, t.System)
	for i := range t.Jobs {
		if err := sw.Write(&t.Jobs[i]); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// WriteSWFStream drains s into w as SWF, returning the number of jobs
// written. Memory stays O(1) in the trace length.
func WriteSWFStream(w io.Writer, s Stream) (int, error) {
	sw := NewSWFWriter(w, s.System())
	n := 0
	for {
		j, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if err := sw.Write(&j); err != nil {
			return n, err
		}
		n++
	}
	return n, sw.Flush()
}

// ReadSWF parses a trace written by WriteSWF (or any 18-field SWF file;
// missing header metadata falls back to zero values and capacity inferred
// from the largest request). The whole file is materialized and sorted; use
// NewSWFStream for bounded-memory iteration over large, already-sorted
// files.
func ReadSWF(r io.Reader) (*Trace, error) {
	sc := newSWFScanner(r)
	t := New(System{})
	var jobLines []int // source line of each job, for post-parse validation
	for {
		nf, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if sc.isHeader() {
			parseSWFHeader(&t.System, sc.header())
			continue
		}
		j, err := sc.job(nf)
		if err != nil {
			return nil, err
		}
		t.Jobs = append(t.Jobs, j)
		jobLines = append(jobLines, sc.lineNo)
	}
	if t.System.TotalCores == 0 {
		for i := range t.Jobs {
			if t.Jobs[i].Procs > t.System.TotalCores {
				t.System.TotalCores = t.Jobs[i].Procs
			}
		}
	}
	// With a declared capacity, a job wider than the machine can never be
	// scheduled; catch it at parse time (headers may trail the job lines,
	// so this must wait for the whole file).
	if t.System.TotalCores > 0 {
		for i := range t.Jobs {
			if t.Jobs[i].Procs > t.System.TotalCores {
				return nil, fmt.Errorf("trace: swf line %d: job %d requests %d procs, system has %d",
					jobLines[i], t.Jobs[i].ID+1, t.Jobs[i].Procs, t.System.TotalCores)
			}
		}
	}
	t.SortBySubmit()
	return t, nil
}

// SWFStream reads an SWF file one job at a time in O(1) memory. It is
// stricter than ReadSWF, which buffers everything and can therefore sort
// and back-patch: the streaming contract requires header comments to form a
// prefix (so System — in particular the capacity jobs are validated
// against — is known before the first job) and job lines to be sorted by
// submit time. WriteSWF output always satisfies both. IDs are re-assigned
// densely in stream order, exactly as ReadSWF's sort pass would for sorted
// input; parse and contract violations carry 1-based line numbers.
type SWFStream struct {
	sc          *swfScanner
	sys         System
	pending     Job // first job line, parsed while New peeked past the header
	pendingErr  error
	havePending bool
	done        bool
	n           int     // jobs emitted
	last        float64 // previous submit time
}

// NewSWFStream consumes the header prefix of r and returns the stream.
func NewSWFStream(r io.Reader) (*SWFStream, error) {
	s := &SWFStream{sc: newSWFScanner(r)}
	for {
		nf, err := s.sc.next()
		if err == io.EOF {
			s.done = true
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		if s.sc.isHeader() {
			parseSWFHeader(&s.sys, s.sc.header())
			continue
		}
		// Parse now: the scanner's fields alias its line buffer, which the
		// next read reuses. Errors surface from the first Next, as before.
		s.pending, s.pendingErr = s.sc.job(nf)
		s.havePending = true
		return s, nil
	}
}

// System returns the header metadata. Complete after NewSWFStream returns
// (headers are required to precede job lines).
func (s *SWFStream) System() System { return s.sys }

// Next returns the next job, io.EOF at the end, or a line-numbered error.
func (s *SWFStream) Next() (Job, error) {
	var j Job
	var err error
	switch {
	case s.havePending:
		j, err = s.pending, s.pendingErr
		s.havePending = false
	case s.done:
		return Job{}, io.EOF
	default:
		var nf int
		nf, err = s.sc.next()
		if err == io.EOF {
			s.done = true
			return Job{}, io.EOF
		}
		if err != nil {
			return Job{}, err
		}
		if s.sc.isHeader() {
			return Job{}, fmt.Errorf("trace: swf line %d: header comment after job lines (streaming needs a header prefix; use ReadSWF)", s.sc.lineNo)
		}
		j, err = s.sc.job(nf)
	}
	if err != nil {
		return Job{}, err
	}
	// The pending job was the last line read, so lineNo is still its line.
	lineNo := s.sc.lineNo
	if s.n > 0 && j.Submit < s.last {
		return Job{}, fmt.Errorf("trace: swf line %d: submit %v before previous %v (streaming needs submit-sorted input; use ReadSWF)",
			lineNo, j.Submit, s.last)
	}
	if s.sys.TotalCores > 0 && j.Procs > s.sys.TotalCores {
		return Job{}, fmt.Errorf("trace: swf line %d: job %d requests %d procs, system has %d",
			lineNo, j.ID+1, j.Procs, s.sys.TotalCores)
	}
	s.last = j.Submit
	j.ID = s.n
	s.n++
	return j, nil
}

// swfScanner is the line scanner both SWF readers share. It reads lines of
// unbounded length with 1-based numbering (bufio.Scanner's token limit made
// long header comments or data lines fail regardless of buffer tuning;
// ReadSlice accumulation grows to whatever the line needs), skips blank
// lines, and splits the rest into fields that alias the reader's buffers,
// so a job line costs no allocation.
type swfScanner struct {
	br     *bufio.Reader
	buf    []byte // accumulates a line longer than br's buffer
	line   []byte
	f      [swfFields][]byte // the first swfFields fields of line
	lineNo int               // lines read so far
}

func newSWFScanner(r io.Reader) *swfScanner {
	return &swfScanner{br: bufio.NewReaderSize(r, 64*1024)}
}

// next advances to the next non-blank line and returns its field count.
// The line and its fields stay valid until the following call. io.EOF
// signals the end; a final unterminated line is returned before the EOF.
func (sc *swfScanner) next() (int, error) {
	for {
		line, err := sc.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			sc.buf = append(sc.buf[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = sc.br.ReadSlice('\n')
				sc.buf = append(sc.buf, line...)
			}
			line = sc.buf
		}
		switch {
		case err == io.EOF && len(line) == 0:
			return 0, io.EOF
		case err != nil && err != io.EOF:
			return 0, err
		}
		sc.lineNo++
		if nf := splitFields(&sc.f, line); nf > 0 {
			sc.line = line
			return nf, nil
		}
	}
}

// isHeader reports whether the current line is a ";" comment.
func (sc *swfScanner) isHeader() bool { return sc.f[0][0] == ';' }

// header returns the current line trimmed, for parseSWFHeader.
func (sc *swfScanner) header() string { return strings.TrimSpace(string(sc.line)) }

// job parses the current line (of nf fields) into a Job, with line-numbered
// errors.
func (sc *swfScanner) job(nf int) (Job, error) {
	if nf < swfFields {
		return Job{}, fmt.Errorf("trace: swf line %d: %d fields, want %d", sc.lineNo, nf, swfFields)
	}
	j, err := parseSWFLine(&sc.f)
	if err != nil {
		return Job{}, fmt.Errorf("trace: swf line %d: %w", sc.lineNo, err)
	}
	return j, nil
}

func parseSWFHeader(sys *System, line string) {
	body := strings.TrimSpace(strings.TrimPrefix(line, ";"))
	key, val, ok := strings.Cut(body, ":")
	if !ok {
		return
	}
	val = strings.TrimSpace(val)
	switch strings.TrimSpace(key) {
	case "Computer":
		sys.Name = val
	case "Kind":
		switch val {
		case "HPC":
			sys.Kind = HPC
		case "DL":
			sys.Kind = DL
		case "Hybrid":
			sys.Kind = Hybrid
		}
	case "MaxProcs":
		if n, err := strconv.Atoi(val); err == nil {
			sys.TotalCores = n
		}
	case "CoresPerNode":
		if n, err := strconv.Atoi(val); err == nil {
			sys.CoresPerNode = n
		}
	case "VirtualClusters":
		if n, err := strconv.Atoi(val); err == nil {
			sys.VirtualClusters = n
		}
	case "StartHour":
		if n, err := strconv.Atoi(val); err == nil {
			sys.StartHour = n
		}
	}
}

func parseSWFLine(f *[swfFields][]byte) (Job, error) {
	var j Job
	var err error
	get := func(i int) (float64, error) { return parseSWFNum(f[i]) }

	id, err := get(0)
	if err != nil {
		return j, fmt.Errorf("job id: %w", err)
	}
	j.ID = int(id) - 1
	if j.Submit, err = get(1); err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	if j.Submit < 0 {
		return j, fmt.Errorf("submit: negative time %v", j.Submit)
	}
	if j.Wait, err = get(2); err != nil {
		return j, fmt.Errorf("wait: %w", err)
	}
	if j.Run, err = get(3); err != nil {
		return j, fmt.Errorf("run: %w", err)
	}
	if j.Run < 0 {
		return j, fmt.Errorf("run: negative runtime %v", j.Run)
	}
	procs, err := get(7)
	if err != nil || procs <= 0 {
		// fall back to used procs (field 4)
		procs, err = get(4)
		if err != nil {
			return j, fmt.Errorf("procs: %w", err)
		}
	}
	if !(procs >= 1 && procs <= math.MaxInt32 && procs == math.Trunc(procs)) {
		// Neither the requested nor the used processor count is usable: a
		// zero-width job cannot be scheduled, and NaN, infinities, fractions
		// and counts past MaxInt32 would convert to 0 or a wrapped negative.
		return j, fmt.Errorf("procs: count %v is not a whole number in [1, %d]", procs, math.MaxInt32)
	}
	j.Procs = int(procs)
	if j.Walltime, err = get(8); err != nil {
		return j, fmt.Errorf("walltime: %w", err)
	}
	if j.Walltime < 0 {
		j.Walltime = 0
	}
	st, err := get(10)
	if err != nil {
		return j, fmt.Errorf("status: %w", err)
	}
	switch int(st) {
	case 0:
		j.Status = Failed
	case 5:
		j.Status = Killed
	default:
		j.Status = Passed
	}
	user, err := get(11)
	if err != nil {
		return j, fmt.Errorf("user: %w", err)
	}
	j.User = int(user) - 1
	if j.User < 0 {
		j.User = 0
	}
	vc, err := get(14) // queue field carries the VC index
	if err != nil {
		return j, fmt.Errorf("vc: %w", err)
	}
	j.VC = int(vc)
	// Checked last so every other rejection keeps its precedence.
	if err := j.checkFinite(); err != nil {
		return j, err
	}
	return j, nil
}
