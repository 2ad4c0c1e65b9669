package twin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"crosssched/internal/trace"
)

// The twin's durability substrate is a per-session append-only write-ahead
// journal. It is trivially correct because a Session IS a deterministic
// replay of its submission log: the journal records exactly the inputs
// (create, submit, advance), and recovery re-derives every byte of session
// state — schedule, published event prefix, clock — by replaying them
// through the same pooled sim.Runner the live session uses.
//
// Wire format: one frame per record, newline-terminated —
//
//	<8-hex payload length> ' ' <8-hex IEEE CRC32 of payload> ' ' <payload> '\n'
//
// where the payload is one JSON object ({"op":"submit",...}). The frame
// header makes torn tails detectable (a crash mid-write leaves a short or
// CRC-failing final frame) and in-place corruption detectable anywhere.
// Recovery truncates at the FIRST bad frame — every fsync-acknowledged
// prefix before it survives — instead of failing startup.
//
// Journals rotate into numbered segment files (000001.wal, 000002.wal, …)
// once a segment passes SegmentBytes, bounding single-file size; replay
// reads segments in order and a bad frame drops the rest of its segment
// and all later segments.

// FsyncPolicy says when journal appends reach stable storage.
type FsyncPolicy uint8

const (
	// FsyncInterval (the default) syncs at most once per FsyncEvery,
	// piggybacked on appends: a crash can lose up to FsyncEvery of
	// acknowledged records, never anything older.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every record before the append returns:
	// every acknowledged submit/advance survives a kill -9.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache.
	FsyncNever
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsync parses the -fsync flag: "always", "never", "interval" (the
// default 100ms cadence), or a duration like "250ms" for an explicit
// interval.
func ParseFsync(s string) (FsyncPolicy, time.Duration, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, 0, nil
	case "never", "os":
		return FsyncNever, 0, nil
	case "interval", "":
		return FsyncInterval, defaultFsyncEvery, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("twin: fsync policy %q: want always, never, or a positive interval like 100ms", s)
	}
	return FsyncInterval, d, nil
}

const (
	defaultFsyncEvery   = 100 * time.Millisecond
	defaultSegmentBytes = 1 << 20
	segmentSuffix       = ".wal"
)

// Journal record operations. A record is one JSON object whose "op" field
// names the mutation; recovery replays them in order. "config" reserves a
// slot for post-create configuration changes (accepted on replay, written
// by nothing yet).
const (
	opCreate  = "create"
	opConfig  = "config"
	opSubmit  = "submit"
	opAdvance = "advance"
)

// record is the journal's JSON payload, a union over the ops.
type record struct {
	Op string `json:"op"`
	// create/config: the session identity and resolved configuration.
	ID  string         `json:"id,omitempty"`
	Cfg *journalConfig `json:"cfg,omitempty"`
	// submit: the staged jobs, post-clamp (replay appends them verbatim).
	Jobs []journalJob `json:"jobs,omitempty"`
	// advance: the resolved target clock.
	To float64 `json:"to,omitempty"`
}

// journalConfig is SessionConfig with enums as wire strings, so journals
// survive enum renumbering. Decoding ignores fields it does not know, such
// as the opt-out of warm what-if forks that older journals carry.
type journalConfig struct {
	Profile    string  `json:"profile,omitempty"`
	Cores      int     `json:"cores"`
	Partitions int     `json:"partitions"`
	Policy     string  `json:"policy"`
	Backfill   string  `json:"backfill"`
	Relax      float64 `json:"relax,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	TickRate   float64 `json:"tick_rate,omitempty"`
}

func toJournalConfig(cfg SessionConfig) *journalConfig {
	return &journalConfig{
		Profile:    cfg.Profile,
		Cores:      cfg.Cores,
		Partitions: cfg.Partitions,
		Policy:     cfg.Policy.String(),
		Backfill:   cfg.Backfill.String(),
		Relax:      cfg.RelaxFactor,
		Seed:       cfg.Seed,
		TickRate:   cfg.TickRate,
	}
}

func fromJournalConfig(jc *journalConfig) (SessionConfig, error) {
	cfg := SessionConfig{
		Profile:     jc.Profile,
		Cores:       jc.Cores,
		Partitions:  jc.Partitions,
		RelaxFactor: jc.Relax,
		Seed:        jc.Seed,
		TickRate:    jc.TickRate,
	}
	var err error
	if cfg.Policy, err = ParsePolicy(jc.Policy); err != nil {
		return cfg, err
	}
	if cfg.Backfill, err = ParseBackfill(jc.Backfill); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// journalJob is the submit record's job entry. Wait and Status are
// implied (-1 / Passed): the twin only journals what the client chose.
type journalJob struct {
	ID       int     `json:"id"`
	User     int     `json:"user,omitempty"`
	Submit   float64 `json:"submit"`
	Run      float64 `json:"run"`
	Walltime float64 `json:"walltime,omitempty"`
	Procs    int     `json:"procs"`
	VC       int     `json:"vc"`
}

func toJournalJobs(jobs []trace.Job) []journalJob {
	out := make([]journalJob, len(jobs))
	for i, j := range jobs {
		out[i] = journalJob{
			ID: j.ID, User: j.User, Submit: j.Submit, Run: j.Run,
			Walltime: j.Walltime, Procs: j.Procs, VC: j.VC,
		}
	}
	return out
}

func fromJournalJobs(jobs []journalJob) []trace.Job {
	out := make([]trace.Job, len(jobs))
	for i, j := range jobs {
		out[i] = trace.Job{
			ID: j.ID, User: j.User, Submit: j.Submit, Wait: -1, Run: j.Run,
			Walltime: j.Walltime, Procs: j.Procs, VC: j.VC, Status: trace.Passed,
		}
	}
	return out
}

// journalOpts bundle the durability knobs a Manager hands each journal.
type journalOpts struct {
	policy   FsyncPolicy
	every    time.Duration
	segBytes int64
}

func (o journalOpts) withDefaults() journalOpts {
	if o.every <= 0 {
		o.every = defaultFsyncEvery
	}
	if o.segBytes <= 0 {
		o.segBytes = defaultSegmentBytes
	}
	return o
}

// journal is one session's open write-ahead log. It is not internally
// locked: the owning Session appends under its own mutex.
type journal struct {
	dir  string
	opts journalOpts

	f        *os.File
	seg      int // current segment number (1-based)
	size     int64
	buf      []byte
	lastSync time.Time
	dirty    bool

	// syncFn indirects fsync for tests that count or fail syncs.
	syncFn func(*os.File) error
}

// openJournal opens the session's journal directory for appending,
// creating it (and the first segment) if needed. Appends continue the
// highest-numbered existing segment.
func openJournal(dir string, opts journalOpts) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	j := &journal{dir: dir, opts: opts.withDefaults(), seg: 1, syncFn: (*os.File).Sync}
	if len(segs) > 0 {
		j.seg = segs[len(segs)-1]
	}
	f, err := os.OpenFile(j.segPath(j.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	j.f, j.size, j.lastSync = f, st.Size(), time.Now()
	return j, nil
}

func (j *journal) segPath(n int) string {
	return filepath.Join(j.dir, fmt.Sprintf("%06d%s", n, segmentSuffix))
}

// segmentFiles lists the directory's segment numbers in ascending order.
func segmentFiles(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(name, segmentSuffix))
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// append frames, writes, and (per policy) syncs one record, rotating the
// segment afterwards when it passed the size threshold. The first error is
// the caller's signal to degrade the session to ephemeral mode.
func (j *journal) append(rec *record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("twin: journal encode: %w", err)
	}
	b := j.buf[:0]
	b = appendHex32(b, uint32(len(payload)))
	b = append(b, ' ')
	b = appendHex32(b, crc32.ChecksumIEEE(payload))
	b = append(b, ' ')
	b = append(b, payload...)
	b = append(b, '\n')
	j.buf = b
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("twin: journal write: %w", err)
	}
	j.size += int64(len(b))
	j.dirty = true
	switch j.opts.policy {
	case FsyncAlways:
		if err := j.sync(); err != nil {
			return err
		}
	case FsyncInterval:
		if time.Since(j.lastSync) >= j.opts.every {
			if err := j.sync(); err != nil {
				return err
			}
		}
	}
	if j.size >= j.opts.segBytes {
		return j.rotate()
	}
	return nil
}

func (j *journal) sync() error {
	if !j.dirty {
		return nil
	}
	if err := j.syncFn(j.f); err != nil {
		return fmt.Errorf("twin: journal fsync: %w", err)
	}
	j.dirty = false
	j.lastSync = time.Now()
	return nil
}

// rotate seals the current segment (synced so a later torn tail cannot
// reach back into it) and starts the next one.
func (j *journal) rotate() error {
	if err := j.sync(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("twin: journal rotate: %w", err)
	}
	j.seg++
	f, err := os.OpenFile(j.segPath(j.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("twin: journal rotate: %w", err)
	}
	j.f, j.size = f, 0
	return nil
}

// close syncs and closes the journal (used by park and teardown).
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	serr := j.sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

func appendHex32(dst []byte, v uint32) []byte {
	const hex = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[(v>>uint(shift))&0xf])
	}
	return dst
}

// parseHex32 decodes exactly 8 lowercase hex digits.
func parseHex32(b []byte) (uint32, bool) {
	if len(b) != 8 {
		return 0, false
	}
	var v uint32
	for _, c := range b {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// replayJournal reads a session's records back, truncating at the first
// torn or corrupt frame: the bad segment is cut at the frame boundary on
// disk and later segments are deleted, so the next writer appends after a
// clean tail. It reports whether anything was truncated.
func replayJournal(dir string) ([]record, bool, error) {
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, false, err
	}
	if len(segs) == 0 {
		return nil, false, fmt.Errorf("twin: journal %s: no segments", dir)
	}
	var recs []record
	truncated := false
	for si, seg := range segs {
		path := filepath.Join(dir, fmt.Sprintf("%06d%s", seg, segmentSuffix))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, truncated, err
		}
		segRecs, goodBytes := parseFrames(data)
		recs = append(recs, segRecs...)
		if goodBytes == int64(len(data)) {
			continue
		}
		// Bad frame: cut this segment at the last good boundary and drop
		// every later segment — nothing after the first corruption is
		// trustworthy.
		truncated = true
		if err := os.Truncate(path, goodBytes); err != nil {
			return nil, truncated, err
		}
		for _, later := range segs[si+1:] {
			if err := os.Remove(filepath.Join(dir, fmt.Sprintf("%06d%s", later, segmentSuffix))); err != nil && !os.IsNotExist(err) {
				return nil, truncated, err
			}
		}
		break
	}
	return recs, truncated, nil
}

// parseFrames decodes frames until the data ends or a frame fails
// validation, returning the records and the byte offset of the first bad
// frame (== len(data) when everything parsed).
func parseFrames(data []byte) ([]record, int64) {
	var recs []record
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: partial frame without terminator
		}
		line := data[off : off+nl]
		// "llllllll cccccccc payload"
		if len(line) < 18 || line[8] != ' ' || line[17] != ' ' {
			break
		}
		plen, ok1 := parseHex32(line[:8])
		crc, ok2 := parseHex32(line[9:17])
		payload := line[18:]
		if !ok1 || !ok2 || int(plen) != len(payload) || crc32.ChecksumIEEE(payload) != crc {
			break
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		switch rec.Op {
		case opCreate, opConfig, opSubmit, opAdvance:
		default:
			// Unknown op: a version skew or corruption that passed the
			// CRC; stop here rather than misinterpret the rest.
			return recs, int64(off)
		}
		recs = append(recs, rec)
		off += nl + 1
	}
	return recs, int64(off)
}
