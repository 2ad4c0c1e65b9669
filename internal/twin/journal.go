package twin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crosssched/internal/trace"
)

// The twin's durability substrate is a per-session append-only write-ahead
// journal. It is trivially correct because a Session IS a deterministic
// replay of its submission log: the journal records exactly the inputs
// (create, submit, advance), and recovery re-derives every byte of session
// state — schedule, published event prefix, clock — by running the logged
// jobs up to the logged clock once with sim.RunToCheckpoint, which builds
// the same baseline checkpoint the live session kept incrementally.
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
// Each session journals to one append-only file, <dir>/000001.wal. Earlier
// versions rotated journals into numbered segments past 1 MiB and gave the
// first segment this name, so their single-segment journals recover
// unchanged; a directory that also holds 000002.wal is refused untouched,
// never recovered from its first segment alone.

// FsyncPolicy says when journal appends reach stable storage.
type FsyncPolicy uint8

const (
	// FsyncInterval (the default) syncs on the first append at least
	// FsyncEvery after the previous sync, and on close (park, shutdown).
	// No timer syncs a quiet session: its last records stay unsynced
	// until its next append or close, however long that takes. A process
	// kill loses none of them (the OS page cache holds them); a power
	// loss or kernel crash can lose every record written since the last
	// sync.
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
	defaultFsyncEvery = 100 * time.Millisecond
	// journalFile is a session's journal; secondSegment is the file an
	// earlier, rotating version started once the first passed 1 MiB.
	journalFile   = "000001.wal"
	secondSegment = "000002.wal"
)

// Journal record operations. A record is one JSON object whose "op" field
// names the mutation; recovery replays them in order.
const (
	opCreate  = "create"
	opSubmit  = "submit"
	opAdvance = "advance"
)

// record is the journal's JSON payload, a union over the ops.
type record struct {
	Op string `json:"op"`
	// create: the session identity and resolved configuration.
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
	policy FsyncPolicy
	every  time.Duration
}

func (o journalOpts) withDefaults() journalOpts {
	if o.every <= 0 {
		o.every = defaultFsyncEvery
	}
	return o
}

// journal is one session's open write-ahead log. It is not internally
// locked: the owning Session appends under its own mutex.
type journal struct {
	opts journalOpts

	f        *os.File
	buf      []byte
	lastSync time.Time
	dirty    bool

	// syncFn indirects fsync for tests that count or fail syncs.
	syncFn func(*os.File) error
}

// openJournal opens the session's journal file for appending, creating
// the directory and the file if needed.
func openJournal(dir string, opts journalOpts) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{opts: opts.withDefaults(), f: f, lastSync: time.Now(), syncFn: (*os.File).Sync}, nil
}

// append frames, writes, and (per policy) syncs one record. The first
// error is the caller's signal to degrade the session to ephemeral mode.
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
	j.dirty = true
	switch j.opts.policy {
	case FsyncAlways:
		return j.sync()
	case FsyncInterval:
		if time.Since(j.lastSync) >= j.opts.every {
			return j.sync()
		}
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

// replayJournal reads a session's records back, truncating the file at
// the first torn or corrupt frame so the next writer appends after a clean
// tail. It reports whether anything was truncated. A directory holding a
// second segment is refused and left as it is: its first segment alone
// would drop acknowledged records.
func replayJournal(dir string) ([]record, bool, error) {
	switch _, err := os.Lstat(filepath.Join(dir, secondSegment)); {
	case err == nil:
		return nil, false, fmt.Errorf("twin: journal %s: second segment %s is not read; refusing to recover the first alone", dir, secondSegment)
	case !os.IsNotExist(err):
		return nil, false, err
	}
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	recs, goodBytes := parseFrames(data)
	if goodBytes == int64(len(data)) {
		return recs, false, nil
	}
	if err := os.Truncate(path, goodBytes); err != nil {
		return nil, true, err
	}
	return recs, true, nil
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
		case opCreate, opSubmit, opAdvance:
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
