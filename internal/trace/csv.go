package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the column layout for the CSV codec. CSV is the lingua
// franca of the DL traces (Philly/Helios ship as CSV), so we provide it
// alongside SWF.
var csvHeader = []string{
	"id", "user", "submit", "wait", "run", "walltime", "procs", "vc", "status",
}

// CSVWriter serializes jobs to CSV incrementally (streaming counterpart of
// WriteCSV). The header row is written on construction.
type CSVWriter struct {
	cw  *csv.Writer
	rec []string
	err error
}

// NewCSVWriter writes the header row and returns a writer for job records.
func NewCSVWriter(w io.Writer) *CSVWriter {
	out := &CSVWriter{cw: csv.NewWriter(w), rec: make([]string, len(csvHeader))}
	out.err = out.cw.Write(csvHeader)
	return out
}

// Write appends one job record.
func (out *CSVWriter) Write(j *Job) error {
	if out.err != nil {
		return out.err
	}
	rec := out.rec
	rec[0] = strconv.Itoa(j.ID)
	rec[1] = strconv.Itoa(j.User)
	rec[2] = strconv.FormatFloat(j.Submit, 'f', 2, 64)
	rec[3] = strconv.FormatFloat(j.Wait, 'f', 2, 64)
	rec[4] = strconv.FormatFloat(j.Run, 'f', 2, 64)
	rec[5] = strconv.FormatFloat(j.Walltime, 'f', 2, 64)
	rec[6] = strconv.Itoa(j.Procs)
	rec[7] = strconv.Itoa(j.VC)
	rec[8] = j.Status.String()
	out.err = out.cw.Write(rec)
	return out.err
}

// Flush drains the buffer and returns the first error encountered.
func (out *CSVWriter) Flush() error {
	if out.err != nil {
		return out.err
	}
	out.cw.Flush()
	out.err = out.cw.Error()
	return out.err
}

// WriteCSV serializes the trace as CSV with a header row. System metadata
// is not carried by CSV; pair it with the SWF codec when you need it.
func WriteCSV(w io.Writer, t *Trace) error {
	out := NewCSVWriter(w)
	for i := range t.Jobs {
		if err := out.Write(&t.Jobs[i]); err != nil {
			return err
		}
	}
	return out.Flush()
}

// WriteCSVStream drains s into w as CSV, returning the number of jobs
// written. Memory stays O(1) in the trace length.
func WriteCSVStream(w io.Writer, s Stream) (int, error) {
	out := NewCSVWriter(w)
	n := 0
	for {
		j, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if err := out.Write(&j); err != nil {
			return n, err
		}
		n++
	}
	return n, out.Flush()
}

// ReadCSV parses a trace written by WriteCSV into the provided system
// description (CSV does not carry one). The whole file is materialized and
// sorted; use NewCSVStream for bounded-memory iteration over large,
// already-sorted files.
func ReadCSV(r io.Reader, sys System) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: csv: %w", err)
	}
	if len(rows) == 0 {
		return New(sys), nil
	}
	t := New(sys)
	for i, rec := range rows {
		if i == 0 && rec[0] == "id" {
			continue // header
		}
		j, err := parseCSVRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: csv row %d: %w", i+1, err)
		}
		t.Jobs = append(t.Jobs, j)
	}
	t.SortBySubmit()
	if t.System.TotalCores == 0 {
		for i := range t.Jobs {
			if t.Jobs[i].Procs > t.System.TotalCores {
				t.System.TotalCores = t.Jobs[i].Procs
			}
		}
	}
	return t, nil
}

// CSVStream reads a CSV trace one job at a time in O(1) memory. Like
// ReadCSV it takes the system description from the caller (CSV carries no
// metadata); unlike ReadCSV, which buffers and sorts, the rows must already
// be submit-sorted. IDs are re-assigned densely in stream order, exactly as
// ReadCSV's sort pass would for sorted input; errors carry 1-based row
// numbers (the header row, when present, is row 1).
type CSVStream struct {
	cr    *csv.Reader
	sys   System
	row   int // physical rows consumed
	n     int // jobs emitted
	last  float64
	done  bool
	first bool
}

// NewCSVStream returns a streaming reader over r for the given system.
func NewCSVStream(r io.Reader, sys System) *CSVStream {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	return &CSVStream{cr: cr, sys: sys, first: true}
}

// System returns the system description supplied at construction.
func (s *CSVStream) System() System { return s.sys }

// Next returns the next job, io.EOF at the end, or a row-numbered error.
func (s *CSVStream) Next() (Job, error) {
	for {
		if s.done {
			return Job{}, io.EOF
		}
		rec, err := s.cr.Read()
		if err == io.EOF {
			s.done = true
			return Job{}, io.EOF
		}
		if err != nil {
			return Job{}, fmt.Errorf("trace: csv: %w", err)
		}
		s.row++
		if s.first {
			s.first = false
			if rec[0] == "id" {
				continue // header
			}
		}
		j, err := parseCSVRecord(rec)
		if err != nil {
			return Job{}, fmt.Errorf("trace: csv row %d: %w", s.row, err)
		}
		if s.n > 0 && j.Submit < s.last {
			return Job{}, fmt.Errorf("trace: csv row %d: submit %v before previous %v (streaming needs submit-sorted input; use ReadCSV)",
				s.row, j.Submit, s.last)
		}
		s.last = j.Submit
		j.ID = s.n
		s.n++
		return j, nil
	}
}

func parseCSVRecord(rec []string) (Job, error) {
	var j Job
	var err error
	if j.ID, err = strconv.Atoi(rec[0]); err != nil {
		return j, fmt.Errorf("id: %w", err)
	}
	if j.User, err = strconv.Atoi(rec[1]); err != nil {
		return j, fmt.Errorf("user: %w", err)
	}
	if j.Submit, err = strconv.ParseFloat(rec[2], 64); err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	if j.Wait, err = strconv.ParseFloat(rec[3], 64); err != nil {
		return j, fmt.Errorf("wait: %w", err)
	}
	if j.Run, err = strconv.ParseFloat(rec[4], 64); err != nil {
		return j, fmt.Errorf("run: %w", err)
	}
	if j.Walltime, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return j, fmt.Errorf("walltime: %w", err)
	}
	if j.Procs, err = strconv.Atoi(rec[6]); err != nil {
		return j, fmt.Errorf("procs: %w", err)
	}
	if j.VC, err = strconv.Atoi(rec[7]); err != nil {
		return j, fmt.Errorf("vc: %w", err)
	}
	if j.Status, err = ParseStatus(rec[8]); err != nil {
		return j, err
	}
	if err := j.checkFinite(); err != nil {
		return j, err
	}
	return j, nil
}
