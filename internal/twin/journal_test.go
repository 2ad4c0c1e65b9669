package twin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"crosssched/internal/obs"
)

// testRecords is a small representative journal: a create followed by
// submits and advances.
func testRecords() []*record {
	return []*record{
		{Op: opCreate, ID: "s000001", Cfg: &journalConfig{Cores: 64, Partitions: 2, Policy: "SJF", Backfill: "easy", Seed: 7}},
		{Op: opSubmit, Jobs: []journalJob{{ID: 0, Submit: 0, Run: 60, Procs: 2, VC: -1}, {ID: 1, Submit: 30, Run: 600, Procs: 4, VC: 1}}},
		{Op: opAdvance, To: 500},
		{Op: opSubmit, Jobs: []journalJob{{ID: 2, Submit: 500, Run: 120, Procs: 1, VC: -1}}},
		{Op: opAdvance, To: 1200},
	}
}

func writeJournal(t *testing.T, dir string, opts journalOpts, recs []*record) {
	t.Helper()
	j, err := openJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

func mustReplay(t *testing.T, dir string, wantTruncated bool) []record {
	t.Helper()
	recs, truncated, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != wantTruncated {
		t.Fatalf("truncated = %v, want %v", truncated, wantTruncated)
	}
	return recs
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testRecords()
	writeJournal(t, dir, journalOpts{}, want)
	got := mustReplay(t, dir, false)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], *want[i]) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], *want[i])
		}
	}
	// The config survives the string round-trip through Parse*.
	cfg, err := fromJournalConfig(got[0].Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back := toJournalConfig(cfg); !reflect.DeepEqual(back, want[0].Cfg) {
		t.Errorf("config round-trip = %+v, want %+v", back, want[0].Cfg)
	}
}

func TestJournalAppendContinuesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	writeJournal(t, dir, journalOpts{}, recs[:3])
	writeJournal(t, dir, journalOpts{}, recs[3:]) // reopen appends, not truncates
	if got := mustReplay(t, dir, false); len(got) != len(recs) {
		t.Fatalf("replayed %d records across reopen, want %d", len(got), len(recs))
	}
}

func TestJournalFsyncPolicies(t *testing.T) {
	count := func(j *journal) *int {
		n := new(int)
		inner := j.syncFn
		j.syncFn = func(f *os.File) error { *n++; return inner(f) }
		return n
	}
	appendN := func(t *testing.T, j *journal, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := j.append(&record{Op: opAdvance, To: float64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("always", func(t *testing.T) {
		j, err := openJournal(t.TempDir(), journalOpts{policy: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		n := count(j)
		appendN(t, j, 5)
		if *n != 5 {
			t.Errorf("always: %d syncs for 5 appends, want 5", *n)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		if *n != 5 {
			t.Errorf("always: close re-synced a clean journal (%d syncs)", *n)
		}
	})
	t.Run("interval", func(t *testing.T) {
		// A huge interval means appends never sync; close still flushes.
		j, err := openJournal(t.TempDir(), journalOpts{policy: FsyncInterval, every: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		n := count(j)
		appendN(t, j, 5)
		if *n != 0 {
			t.Errorf("interval(1h): %d syncs for 5 appends, want 0", *n)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		if *n != 1 {
			t.Errorf("interval(1h): close produced %d syncs, want 1", *n)
		}
	})
	t.Run("never", func(t *testing.T) {
		j, err := openJournal(t.TempDir(), journalOpts{policy: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		n := count(j)
		appendN(t, j, 5)
		if *n != 0 {
			t.Errorf("never: %d syncs for 5 appends, want 0", *n)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in     string
		policy FsyncPolicy
		every  time.Duration
		bad    bool
	}{
		{in: "always", policy: FsyncAlways},
		{in: "Never", policy: FsyncNever},
		{in: "interval", policy: FsyncInterval, every: defaultFsyncEvery},
		{in: "", policy: FsyncInterval, every: defaultFsyncEvery},
		{in: "250ms", policy: FsyncInterval, every: 250 * time.Millisecond},
		{in: "-5s", bad: true},
		{in: "sometimes", bad: true},
	}
	for _, c := range cases {
		p, every, err := ParseFsync(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseFsync(%q): want error", c.in)
			}
			continue
		}
		if err != nil || p != c.policy || every != c.every {
			t.Errorf("ParseFsync(%q) = (%v, %v, %v), want (%v, %v)", c.in, p, every, err, c.policy, c.every)
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	recs := testRecords()

	t.Run("garbage-appended", func(t *testing.T) {
		dir := t.TempDir()
		writeJournal(t, dir, journalOpts{}, recs)
		path := filepath.Join(dir, journalFile)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A torn frame: header bytes with no newline, as a crash mid-write
		// leaves behind.
		if _, err := f.Write([]byte("00000040 deadbeef {\"op\":\"adv")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		pre, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		got := mustReplay(t, dir, true)
		if len(got) != len(recs) {
			t.Fatalf("replayed %d records, want all %d good ones", len(got), len(recs))
		}
		post, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if post.Size() >= pre.Size() {
			t.Fatalf("file not truncated: %d -> %d bytes", pre.Size(), post.Size())
		}
		// The truncation healed the file: a second replay is clean and a
		// reopened journal appends after the cut.
		writeJournal(t, dir, journalOpts{}, []*record{{Op: opAdvance, To: 9999}})
		if got := mustReplay(t, dir, false); len(got) != len(recs)+1 || got[len(got)-1].To != 9999 {
			t.Fatalf("append after truncation: got %d records", len(got))
		}
	})

	t.Run("chopped-mid-frame", func(t *testing.T) {
		dir := t.TempDir()
		writeJournal(t, dir, journalOpts{}, recs)
		path := filepath.Join(dir, journalFile)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-5); err != nil { // cut into the last frame
			t.Fatal(err)
		}
		got := mustReplay(t, dir, true)
		if len(got) != len(recs)-1 {
			t.Fatalf("replayed %d records after chop, want %d", len(got), len(recs)-1)
		}
	})

	t.Run("flipped-crc-mid-file", func(t *testing.T) {
		dir := t.TempDir()
		writeJournal(t, dir, journalOpts{}, recs)
		path := filepath.Join(dir, journalFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt a payload byte in the FIRST frame (past the 18-byte
		// header, inside the JSON): the good frames after it are dropped.
		i := 18 + bytes.IndexByte(data[18:], ':')
		data[i+1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := mustReplay(t, dir, true)
		if len(got) != 0 {
			t.Fatalf("replayed %d records past a corrupt first frame, want 0", len(got))
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Fatalf("file is %d bytes, want it truncated to the corrupt first frame", st.Size())
		}
	})
}

// TestJournalRefusesSecondSegment: a journal that an earlier, rotating
// version split into 000001.wal and 000002.wal is not recovered from its
// first segment alone; the session stays unserved and both files stay
// byte-identical for the version that can read them.
func TestJournalRefusesSecondSegment(t *testing.T) {
	state := t.TempDir()
	dir := filepath.Join(state, "s000001")
	recs := testRecords()
	writeJournal(t, dir, journalOpts{}, recs[:3])
	first, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var second []byte
	for _, r := range recs[3:] {
		p, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		second = fmt.Appendf(second, "%08x %08x %s\n", len(p), crc32.ChecksumIEEE(p), p)
	}
	second = append(second, "00000040 deadbeef {\"op\":\"adv"...) // a torn tail too
	if err := os.WriteFile(filepath.Join(dir, secondSegment), second, 0o644); err != nil {
		t.Fatal(err)
	}

	m := testManager(t, Config{StateDir: state})
	if got := m.Metrics(); got.TwinRecovered != 0 || got.TwinTruncations != 0 {
		t.Fatalf("recovery metrics = %+v, want nothing recovered or truncated", got)
	}
	if _, err := m.Get("s000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on a two-segment journal: err = %v, want ErrNotFound", err)
	}
	for name, want := range map[string][]byte{journalFile: first, secondSegment: second} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s changed by the refused recovery (%d -> %d bytes)", name, len(want), len(got))
		}
	}
}

// TestJournalRecoversColdWhatIfField: journals written while sessions
// could opt out of warm what-if forks carry "cold_whatif" in their create
// record. The field is gone; such a journal still recovers, and the
// session answers what-ifs like the sim.Run reference.
func TestJournalRecoversColdWhatIfField(t *testing.T) {
	dir := t.TempDir()
	var wal []byte
	for _, payload := range []string{
		`{"op":"create","id":"s000001","cfg":{"cores":64,"partitions":1,"policy":"FCFS","backfill":"EASY","seed":7,"cold_whatif":true}}`,
		`{"op":"submit","jobs":[{"id":0,"submit":0,"run":600,"procs":48,"vc":-1},{"id":1,"submit":10,"run":300,"procs":40,"vc":-1},{"id":2,"submit":20,"run":60,"procs":8,"vc":-1},{"id":3,"submit":30,"run":900,"procs":32,"vc":-1}]}`,
		`{"op":"advance","to":100}`,
	} {
		wal = appendHex32(wal, uint32(len(payload)))
		wal = append(wal, ' ')
		wal = appendHex32(wal, crc32.ChecksumIEEE([]byte(payload)))
		wal = append(wal, ' ')
		wal = append(wal, payload...)
		wal = append(wal, '\n')
	}
	if err := os.MkdirAll(filepath.Join(dir, "s000001"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s000001", "000001.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	m := testManager(t, Config{StateDir: dir})
	if got := m.Metrics(); got.TwinRecovered != 1 || got.TwinTruncations != 0 {
		t.Fatalf("recovery metrics = %+v, want 1 recovered, 0 truncations", got)
	}
	s, err := m.Get("s000001")
	if err != nil {
		t.Fatal(err)
	}
	req := WhatIfRequest{Candidates: []Candidate{{Policy: "sjf"}, {Backfill: "conservative"}}}
	got, err := s.WhatIf(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fuzzReference(t, s).report(t, s, req)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "recovered report", got, want)
	if got.Now != 100 || got.PendingJobs == 0 {
		t.Fatalf("recovered session at t=%v with %d pending jobs, want t=100 and some pending", got.Now, got.PendingJobs)
	}
}

// FuzzJournalReplay feeds recovery the bytes a restart reads from disk.
// payloads is split at newlines into payloads, each wrapped in a frame
// with a valid length and CRC, so the JSON decoding and op checks behind
// the frame check get exercised; tail is appended raw after the frames
// (torn writes, garbage, frames the fuzzer forged). Recovery must not
// panic, must recover a frame-boundary prefix of the valid records — every
// record before the first payload that does not decode to a known op, and
// nothing past it — and must be idempotent: a second replay of the
// truncated journal reads the same records and truncates nothing, and a
// Manager restarted twice over the same state directory serves the same
// session both times.
func FuzzJournalReplay(f *testing.F) {
	var valid [][]byte
	for _, r := range testRecords() {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, b)
	}
	joined := bytes.Join(valid, []byte("\n"))
	f.Add(joined, []byte(nil))
	f.Add(joined, []byte("0000002a 00000000 {\"op\":\"adv"))
	f.Add(joined, []byte("\x00\xff garbage\n"))
	f.Add(bytes.Join([][]byte{valid[0], valid[1], []byte(`{"op":"rename"}`), valid[2]}, []byte("\n")), []byte(nil))
	f.Add(bytes.Join([][]byte{valid[0], []byte(`{"op":"submit","jobs":[{"procs":"x"}]}`), valid[1]}, []byte("\n")), []byte(nil))
	f.Add([]byte(`{"op":"create","id":"s000001","cfg":{"cores":0}}`), []byte(nil))
	f.Add([]byte(nil), []byte("not a journal"))
	f.Fuzz(func(t *testing.T, payloads, tail []byte) {
		var frames [][]byte
		var want []record
		prefix := true // every payload so far decoded to a known op
		for _, p := range bytes.Split(payloads, []byte("\n")) {
			frames = append(frames, fmt.Appendf(nil, "%08x %08x %s\n", len(p), crc32.ChecksumIEEE(p), p))
			var rec record
			ok := json.Unmarshal(p, &rec) == nil
			switch rec.Op {
			case opCreate, opSubmit, opAdvance:
			default:
				ok = false
			}
			if prefix = prefix && ok; prefix {
				want = append(want, rec)
			}
		}
		wal := append(bytes.Join(frames, nil), tail...)
		writeWAL := func(state string) string {
			dir := filepath.Join(state, "s000001")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, journalFile), wal, 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}

		dir := writeWAL(t.TempDir())
		got, _, err := replayJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("recovered %d records, not a prefix extension of the %d valid ones:\n got %+v\nwant %+v", len(got), len(want), got, want)
		}
		if !prefix && len(got) != len(want) {
			t.Fatalf("recovered %d records past the first invalid payload (valid prefix %d)", len(got), len(want))
		}
		again, truncated, err := replayJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if truncated || !reflect.DeepEqual(again, got) {
			t.Fatalf("second replay: truncated=%v, %d records, want %d unchanged", truncated, len(again), len(got))
		}

		state := t.TempDir()
		writeWAL(state)
		restart := func() (snap []byte, met obs.Metrics, err error) {
			m := NewManager(Config{StateDir: state, Fsync: FsyncNever, TickInterval: time.Hour})
			defer m.Close()
			s, err := m.Get("s000001")
			if err != nil {
				return nil, m.Metrics(), err
			}
			st, err := s.Status()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			return b, m.Metrics(), nil
		}
		first, _, err1 := restart()
		second, met, err2 := restart()
		if (err1 == nil) != (err2 == nil) || !bytes.Equal(first, second) {
			t.Fatalf("restarts disagree:\n first %s (%v)\nsecond %s (%v)", first, err1, second, err2)
		}
		if met.TwinTruncations != 0 {
			t.Fatalf("second restart truncated the journal again")
		}
	})
}
