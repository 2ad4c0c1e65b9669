package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"crosssched/internal/obs"
	"crosssched/internal/twin"
)

// inproc drives session scripts against a twin.Manager in this process,
// making the same Manager/Session calls the HTTP handlers make. With
// timers set it times each call: the per-layer twin.* metrics and the
// in-process side of the HTTP overhead.
type inproc struct {
	m  *twin.Manager
	tm *twinTimers
}

// twinTimers holds in-process call timings in milliseconds.
type twinTimers struct {
	call [numOps]samples // the op's own Manager/Session calls
	op   [numOps]samples // the whole handler-equivalent, lookup included
	get  samples         // Manager.Get
	// journaled holds Submit and AdvanceBy call times alone: the calls
	// that append to the journal when the manager is durable.
	journaled samples
}

// session replays steps on one session and returns the session ID. For a
// created session id is empty and the first step creates it. each, when
// set, receives every what-if report and /log body by step index.
func (ip *inproc) session(id string, sc *script, steps []step, each func(i int, rep *twin.Report, log []byte)) (string, error) {
	for i := range steps {
		st := &steps[i]
		var err error
		id, err = ip.step(id, sc, st, func(rep *twin.Report, log []byte) {
			if each != nil {
				each(i, rep, log)
			}
		})
		if err != nil {
			return id, fmt.Errorf("%s (step %d): %w", opNames[st.op], i, err)
		}
	}
	return id, nil
}

func (ip *inproc) step(id string, sc *script, st *step, out func(*twin.Report, []byte)) (string, error) {
	t0 := time.Now()
	var tCall time.Time
	var s *twin.Session
	var err error
	lookup := func() error {
		s, err = ip.m.Get(id)
		tCall = time.Now()
		if ip.tm != nil {
			ip.tm.get.addDur(tCall.Sub(t0))
		}
		return err
	}
	switch st.op {
	case opCreate:
		cfg, cerr := sc.cfg.sessionConfig()
		if cerr != nil {
			return id, cerr
		}
		tCall = t0
		if s, err = ip.m.Create(cfg); err != nil {
			return id, err
		}
		id = s.ID
		_, err = s.Status()
	case opSubmit:
		if lookup() != nil {
			return id, err
		}
		_, err = s.Submit(st.jobs)
		if ip.tm != nil {
			ip.tm.journaled.addDur(time.Since(tCall))
		}
		_ = s.Now()
	case opWhatIf:
		if lookup() != nil {
			return id, err
		}
		var rep *twin.Report
		rep, err = s.WhatIf(context.Background(), st.whatif)
		if err == nil {
			out(rep, nil)
		}
	case opAdvance:
		if lookup() != nil {
			return id, err
		}
		err = s.AdvanceBy(st.by)
		if ip.tm != nil {
			ip.tm.journaled.addDur(time.Since(tCall))
		}
		if err == nil {
			_, err = s.Status()
		}
	case opLog:
		if lookup() != nil {
			return id, err
		}
		var evs []obs.Event
		evs, err = s.EmittedPrefix()
		if err == nil {
			out(nil, encodeLog(evs))
		}
	case opDelete:
		tCall = t0
		err = ip.m.Delete(id)
	}
	if ip.tm != nil {
		end := time.Now()
		ip.tm.call[st.op].addDur(end.Sub(tCall))
		ip.tm.op[st.op].addDur(end.Sub(t0))
	}
	return id, err
}

// encodeLog renders events exactly as GET /session/{id}/log does.
func encodeLog(evs []obs.Event) []byte {
	var buf []byte
	for _, e := range evs {
		buf = obs.AppendEventJSON(buf, e)
		buf = append(buf, '\n')
	}
	return buf
}

// normalize passes a report through its wire encoding and clears the
// session ID, so references compare equal to decoded HTTP replies.
func normalize(rep *twin.Report) (*twin.Report, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return decodeReport(b)
}

func decodeReport(b []byte) (*twin.Report, error) {
	var rep twin.Report
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return nil, err
	}
	rep.Session = ""
	return &rep, nil
}

// refs holds the in-process twin's reference replies: per created class,
// and per (resumed class, earlier resumes of the same session), built on
// first use.
type refs struct {
	set     *scriptSet
	created []*reference

	mu      sync.Mutex
	resumed map[[2]int]*reference
}

// reference is one session's expected what-if reports and /log bodies,
// by step index.
type reference struct {
	reports map[int]*twin.Report
	logs    map[int][]byte
	err     error
}

func newReference() *reference {
	return &reference{reports: map[int]*twin.Report{}, logs: map[int][]byte{}}
}

func (ref *reference) record(i int, rep *twin.Report, log []byte) {
	if rep == nil {
		ref.logs[i] = log
		return
	}
	norm, err := normalize(rep)
	if err != nil && ref.err == nil {
		ref.err = err
	}
	ref.reports[i] = norm
}

// newRefs replays every created class in an in-memory twin.
func newRefs(set *scriptSet) (*refs, error) {
	rf := &refs{set: set, resumed: map[[2]int]*reference{}}
	m := twin.NewManager(twin.Config{MaxSessions: len(set.created) + 1})
	defer m.Close()
	ip := &inproc{m: m}
	for _, sc := range set.created {
		ref := newReference()
		if _, err := ip.session("", sc, sc.steps, ref.record); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		if ref.err != nil {
			return nil, ref.err
		}
		rf.created = append(rf.created, ref)
	}
	return rf, nil
}

// resumedRef replays resumed class c's history and u earlier resumes in an
// in-memory twin, then records the next resume.
func (rf *refs) resumedRef(c, u int) *reference {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	key := [2]int{c, u}
	if ref, ok := rf.resumed[key]; ok {
		return ref
	}
	ref := newReference()
	sc := rf.set.resumed[c]
	m := twin.NewManager(twin.Config{})
	ip := &inproc{m: m}
	id, err := ip.session("", sc, []step{createStep(sc.cfg)}, nil)
	if err == nil {
		_, err = ip.session(id, sc, sc.history, nil)
	}
	for i := 0; i < u && err == nil; i++ {
		_, err = ip.session(id, sc, sc.steps, nil)
	}
	if err == nil {
		_, err = ip.session(id, sc, sc.steps, ref.record)
	}
	m.Close()
	if err != nil {
		ref.err = fmt.Errorf("reference run (resumed class %d, use %d): %w", c, u, err)
	}
	rf.resumed[key] = ref
	return ref
}

// lookup returns the reference for a driven session.
func (rf *refs) lookup(class, use int) *reference {
	if use < 0 {
		return rf.created[class]
	}
	return rf.resumedRef(class, use)
}
