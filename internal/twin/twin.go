// Package twin implements the digital-twin scheduling service behind
// cmd/lumosweb: long-lived per-client sessions that mirror a cluster's
// submission queue in a continuously-advancing simulation and answer
// what-if queries against it.
//
// Each Session holds a cluster shape (a calibrated profile's geometry or a
// client-supplied cores/partitions pair), an append-only submission log,
// and a simulation clock. The twin itself is a deterministic replay of its
// log, kept incrementally: the session's baseline schedule is one
// sim.Checkpoint paused at the clock, which Submit extends and advancing
// runs forward, publishing the decision events its tap sees (exactly those
// strictly before the new clock) to SSE subscribers through a bounded,
// drop-oldest obs.Hub. Because submissions are clamped to the current
// clock and the simulator is causal — a job cannot change decisions made
// strictly before its submit time — the published event prefix never
// contradicts a later replay.
//
// A what-if query forks the twin. The submission log is run under N
// candidate policy x backfill x fault configurations concurrently on the
// internal/par worker pool, each distinct configuration as one fork of a
// checkpoint of it held at the session clock. The outcomes are scored on
// the jobs still pending at the clock, and the reply ranks them with
// wait/bsld/util deltas against the session's own configuration, whose
// fork is of the baseline checkpoint. Replies are deterministic for a
// fixed log, clock, and seed, independent of worker count: runs are
// indexed, fault injection is seeded, and ties rank by candidate order.
//
// Resource bounds are explicit so thousands of sessions fit one process:
// an LRU cap on live sessions (the oldest is evicted, its subscribers
// disconnected), a per-session submission cap, a per-session subscriber
// budget, fixed-size per-subscriber event rings, and a candidate cap per
// what-if. A Manager owns exactly one background goroutine — the
// wall-clock ticker that advances auto-ticking sessions — so the
// goroutine count is bounded by live SSE connections, which the HTTP
// layer owns.
package twin

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// Sentinel errors; the HTTP layer maps these to status codes.
var (
	// ErrClosed: the manager or session has been shut down.
	ErrClosed = errors.New("twin: closed")
	// ErrNotFound: no session with that ID.
	ErrNotFound = errors.New("twin: session not found")
	// ErrBudget: a resource cap (jobs, subscribers, candidates) was hit.
	ErrBudget = errors.New("twin: budget exhausted")
	// ErrEmpty: the operation needs pending jobs and there are none.
	ErrEmpty = errors.New("twin: nothing to replay")
)

// Config bounds a Manager. The zero value gets serving-safe defaults.
type Config struct {
	// MaxSessions caps live sessions; creating one more evicts the least
	// recently used (default 2048).
	MaxSessions int
	// MaxJobs caps a session's submission log (default 10000).
	MaxJobs int
	// MaxSubscribers is the per-session SSE budget (default 16) — the
	// per-session goroutine budget, since subscribers are the only
	// goroutines a session induces.
	MaxSubscribers int
	// EventBuffer is the per-subscriber ring size (default 256). A slow
	// client loses the oldest events, never the session.
	EventBuffer int
	// MaxCandidates caps one what-if's fan-out (default 64).
	MaxCandidates int
	// TickInterval is the wall-clock granularity at which auto-ticking
	// sessions advance (default 1s).
	TickInterval time.Duration
	// StateDir, when non-empty, makes sessions durable: each gets a
	// write-ahead journal under StateDir/<id>/, NewManager recovers
	// journaled sessions on startup, and LRU eviction parks sessions to
	// disk instead of destroying them. Empty (the default) keeps today's
	// in-memory-only behavior, bit-identical.
	StateDir string
	// Fsync and FsyncEvery pick the journal durability policy (default:
	// FsyncInterval every 100ms). Under FsyncInterval an append syncs once
	// FsyncEvery has passed since the last sync, and park and shutdown
	// sync; nothing syncs a session that has gone quiet, so its last
	// records survive a process kill (they are in the page cache) but not
	// a power loss, for as long as it stays quiet.
	Fsync      FsyncPolicy
	FsyncEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 2048
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 10000
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 16
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 64
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Second
	}
	return c
}

// Manager owns the session table: creation, LRU eviction (spill-to-disk
// parking when durable), lookup with transparent reactivation, the shared
// wall-clock ticker, and teardown. All methods are safe for concurrent
// use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*list.Element // value: *Session
	lru      *list.List               // front = most recently used
	parked   map[string]bool          // durable sessions spilled to disk
	parking  map[string]chan struct{} // LRU victims being parked; closed when settled
	reviving map[string]*recoverOp    // single-flight reactivations
	metrics  obs.Metrics              // Twin* counters, guarded by mu
	seq      uint64
	closed   bool

	stop chan struct{}
	done chan struct{}
}

// recoverOp de-duplicates concurrent reactivations of one parked session:
// the first Get replays the journal, later Gets wait on done.
type recoverOp struct {
	done chan struct{}
	s    *Session
	err  error
}

// sessionID is the manager's ID scheme; recovery trusts only directory
// names matching it.
var sessionID = regexp.MustCompile(`^s(\d{6,})$`)

// NewManager starts a manager (and its single ticker goroutine). With
// StateDir set it first recovers every journaled session found there —
// torn or corrupt journal tails are truncated at the first bad frame, not
// fatal — loading up to MaxSessions into memory (newest last, so they are
// most recently used) and registering any surplus as parked.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*list.Element),
		lru:      list.New(),
		parked:   make(map[string]bool),
		parking:  make(map[string]chan struct{}),
		reviving: make(map[string]*recoverOp),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if m.cfg.StateDir != "" {
		m.recoverAll()
	}
	go m.tickLoop()
	return m
}

// recoverAll scans StateDir and rebuilds sessions. It runs before the
// manager is published, so no locking is needed; failures skip the
// directory (the journal stays on disk untouched) rather than failing
// startup.
func (m *Manager) recoverAll() {
	_ = os.MkdirAll(m.cfg.StateDir, 0o755)
	ents, err := os.ReadDir(m.cfg.StateDir)
	if err != nil {
		return
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && sessionID.MatchString(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if n, err := strconv.ParseUint(sessionID.FindStringSubmatch(id)[1], 10, 64); err == nil && n > m.seq {
			m.seq = n
		}
		if m.lru.Len() >= m.cfg.MaxSessions {
			// Surplus stays on disk; the first Get reactivates it (and
			// parks a colder session in exchange).
			m.parked[id] = true
			continue
		}
		s, truncated, err := m.recoverSession(id)
		if truncated {
			m.metrics.TwinTruncations++
		}
		if err != nil {
			continue
		}
		m.sessions[id] = m.lru.PushFront(s)
		m.metrics.TwinRecovered++
	}
}

// recoverSession rebuilds one session from its journal directory and
// reopens the journal for appending. The restore invariant: a session is a
// deterministic replay of its log, so replaying the journaled inputs
// reproduces the pre-crash published event prefix byte-for-byte.
func (m *Manager) recoverSession(id string) (*Session, bool, error) {
	dir := filepath.Join(m.cfg.StateDir, id)
	recs, truncated, err := replayJournal(dir)
	if err != nil {
		return nil, truncated, err
	}
	if len(recs) == 0 || recs[0].Op != opCreate || recs[0].Cfg == nil {
		return nil, truncated, fmt.Errorf("twin: journal %s: missing create record", dir)
	}
	cfg, err := fromJournalConfig(recs[0].Cfg)
	if err != nil {
		return nil, truncated, err
	}
	s, err := newSession(id, cfg, m.cfg)
	if err != nil {
		return nil, truncated, err
	}
	var jobs []trace.Job
	var now float64
	for _, rec := range recs[1:] {
		switch rec.Op {
		case opSubmit:
			jobs = append(jobs, fromJournalJobs(rec.Jobs)...)
		case opAdvance:
			if rec.To > now {
				now = rec.To
			}
		}
	}
	if err := s.restore(jobs, now); err != nil {
		return nil, truncated, err
	}
	if jr, err := openJournal(dir, m.journalOpts()); err != nil {
		// Recovered but not re-journalable: serve it ephemeral rather
		// than lose it. Pre-publication, so direct field writes are safe.
		s.ephemeral = true
		m.metrics.TwinEphemeral++
	} else {
		s.attachJournal(jr, m.noteEphemeral)
	}
	return s, truncated, nil
}

func (m *Manager) journalOpts() journalOpts {
	return journalOpts{policy: m.cfg.Fsync, every: m.cfg.FsyncEvery}
}

// noteEphemeral is the sessions' degradation hook (called under the
// session's own lock; s.mu -> m.mu is the safe acquisition order).
func (m *Manager) noteEphemeral() {
	m.mu.Lock()
	m.metrics.TwinEphemeral++
	m.mu.Unlock()
}

// Metrics returns a copy of the manager's durability counters.
func (m *Manager) Metrics() obs.Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics
}

// Create builds a session and registers it, evicting the least recently
// used session when the cap is reached — to disk when it has a journal,
// destructively otherwise.
func (m *Manager) Create(cfg SessionConfig) (*Session, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("s%06d", m.seq)
	m.mu.Unlock()

	// Build outside the lock: profile resolution and validation don't need
	// the table.
	s, err := newSession(id, cfg, m.cfg)
	if err != nil {
		return nil, err
	}
	if m.cfg.StateDir != "" {
		m.journalCreate(s)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		s.Close()
		return nil, ErrClosed
	}
	victims := m.insertLocked(s)
	m.mu.Unlock()
	m.retire(victims)
	return s, nil
}

// journalCreate opens the new session's journal and writes its create
// record. Failure degrades the session to ephemeral instead of failing
// the create: no durability beats no service.
func (m *Manager) journalCreate(s *Session) {
	dir := filepath.Join(m.cfg.StateDir, s.ID)
	jr, err := openJournal(dir, m.journalOpts())
	if err == nil {
		err = jr.append(&record{Op: opCreate, ID: s.ID, Cfg: toJournalConfig(s.cfg)})
		if err != nil {
			_ = jr.close()
		}
	}
	if err != nil {
		s.ephemeral = true
		m.noteEphemeral()
		return
	}
	s.attachJournal(jr, m.noteEphemeral)
}

// insertLocked registers s as most recently used and pops LRU entries
// while over the cap, returning them for the caller to retire outside the
// table lock. With a state directory each victim stays resolvable while it
// is retired: a parking entry makes Get and Delete wait for the park to
// settle instead of reporting the session missing. Caller holds m.mu.
func (m *Manager) insertLocked(s *Session) []*Session {
	var victims []*Session
	for m.lru.Len() >= m.cfg.MaxSessions {
		oldest := m.lru.Back()
		old := oldest.Value.(*Session)
		m.lru.Remove(oldest)
		delete(m.sessions, old.ID)
		if m.cfg.StateDir != "" {
			m.parking[old.ID] = make(chan struct{})
		}
		victims = append(victims, old)
	}
	m.sessions[s.ID] = m.lru.PushFront(s)
	return victims
}

// retire disposes of evicted sessions: durable ones are parked (journal
// flushed and closed, THEN registered as parked, so a reactivation can
// never read a journal mid-flush), the rest are destroyed. A parked
// session answers its subscribers with a terminal "parked" reason.
func (m *Manager) retire(victims []*Session) {
	for _, old := range victims {
		parked := old.park()
		if !parked {
			old.closeReason("evicted")
		}
		m.mu.Lock()
		if parked && !m.closed {
			m.parked[old.ID] = true
			m.metrics.TwinParked++
		}
		if ch, ok := m.parking[old.ID]; ok {
			delete(m.parking, old.ID)
			close(ch)
		}
		m.mu.Unlock()
	}
}

// awaitParkLocked waits out an in-flight park of id (see insertLocked).
// Called and returns with m.mu held; the lock is released while waiting.
func (m *Manager) awaitParkLocked(id string) {
	for {
		ch, ok := m.parking[id]
		if !ok {
			return
		}
		m.mu.Unlock()
		<-ch
		m.mu.Lock()
	}
}

// Get returns the session and marks it most recently used. A session that
// LRU eviction is parking is waited for, and a parked session is
// transparently reactivated from its journal (single-flight: concurrent
// Gets share one recovery).
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	m.awaitParkLocked(id)
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if el, ok := m.sessions[id]; ok {
		m.lru.MoveToFront(el)
		s := el.Value.(*Session)
		m.mu.Unlock()
		return s, nil
	}
	if op, ok := m.reviving[id]; ok {
		m.mu.Unlock()
		<-op.done
		return op.s, op.err
	}
	if !m.parked[id] {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	op := &recoverOp{done: make(chan struct{})}
	m.reviving[id] = op
	m.mu.Unlock()

	s, truncated, err := m.recoverSession(id) // journal replay, outside the lock

	var victims []*Session
	m.mu.Lock()
	delete(m.reviving, id)
	if truncated {
		m.metrics.TwinTruncations++
	}
	if err == nil && m.closed {
		err = ErrClosed
	}
	if err == nil {
		delete(m.parked, id)
		m.metrics.TwinRecovered++
		m.metrics.TwinReactivated++
		victims = m.insertLocked(s)
	}
	m.mu.Unlock()
	if err != nil {
		if s != nil {
			s.Close()
		}
		op.err = fmt.Errorf("twin: reactivate %q: %w", id, err)
		close(op.done)
		return nil, op.err
	}
	op.s = s
	close(op.done)
	m.retire(victims)
	return s, nil
}

// Delete tears a session down — live or parked — and removes its durable
// state. It reports ErrNotFound for unknown IDs.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	m.awaitParkLocked(id)
	el, ok := m.sessions[id]
	if ok {
		m.lru.Remove(el)
		delete(m.sessions, id)
	}
	wasParked := m.parked[id]
	delete(m.parked, id)
	m.mu.Unlock()
	if !ok && !wasParked {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if ok {
		el.Value.(*Session).Close()
	}
	if m.cfg.StateDir != "" {
		_ = os.RemoveAll(filepath.Join(m.cfg.StateDir, id))
	}
	return nil
}

// Len reports the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// Close stops the ticker and tears down every session, disconnecting
// subscribers so in-flight SSE requests can drain. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var all []*Session
	for el := m.lru.Front(); el != nil; el = el.Next() {
		all = append(all, el.Value.(*Session))
	}
	m.sessions = map[string]*list.Element{}
	m.lru.Init()
	m.mu.Unlock()

	close(m.stop)
	<-m.done
	for _, s := range all {
		s.Close()
	}
}

// tickLoop advances auto-ticking sessions by wall-clock time. It is the
// manager's only background goroutine.
func (m *Manager) tickLoop() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.TickInterval)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			dt := now.Sub(last).Seconds()
			last = now
			for _, s := range m.ticking() {
				// Errors (closed session racing eviction) are benign here.
				_ = s.AdvanceBy(s.cfg.TickRate * dt)
			}
		}
	}
}

// ticking snapshots the sessions with a tick rate, so Advance runs outside
// the table lock.
func (m *Manager) ticking() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Session
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if s := el.Value.(*Session); s.cfg.TickRate > 0 {
			out = append(out, s)
		}
	}
	return out
}
