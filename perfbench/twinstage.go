package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"crosssched/internal/stats"
	"crosssched/internal/twin"
)

// twinInputs are what the twin stage built and the traced passes reuse.
type twinInputs struct {
	set       *scriptSet
	refs      *refs
	populated string   // pre-populated state directory (durable workloads)
	lateness  *samples // ms, open-loop generator lateness
}

// twinStage times lumosweb's set-up, then drives the closed-loop phase and
// the open-loop phase against one server, and checks every what-if
// report and resumed /log prefix against the in-process twin.
func (r *run) twinStage() (*twinInputs, error) {
	w := r.w
	in := &twinInputs{set: makeScripts(w, r.seed)}
	var err error
	if in.refs, err = newRefs(in.set); err != nil {
		return nil, err
	}
	if w.Durable {
		in.populated = filepath.Join(r.work, "populated")
		t0 := time.Now()
		if err := populate(in.populated, w, in.set); err != nil {
			return nil, fmt.Errorf("populate state directory: %w", err)
		}
		if err := r.checkRecovery(in); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: populated %d sessions in %v\n", w.Populated, time.Since(t0).Round(time.Millisecond))
	}

	// The launches before the last only recover the directory and answer
	// one read, which leaves it unchanged, so they share one copy; the
	// server that takes the load gets a fresh one.
	// Each launch follows a calibration run, which scales its set-up time
	// to the reference host.
	var setups, refSetups []float64
	var srv *server
	shared, err := r.stateDir(in, "state-setup")
	if err != nil {
		return nil, err
	}
	for l := 0; l < setupLaunches; l++ {
		dir := shared
		if l == setupLaunches-1 {
			if dir, err = r.stateDir(in, "state"); err != nil {
				return nil, err
			}
		}
		slow, err := r.calibrate()
		if err != nil {
			return nil, err
		}
		s, d, err := r.launch(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		refSetups = append(refSetups, d.Seconds()/slow)
		if l == setupLaunches-1 {
			srv = s
			break
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	r.set("setup_s", "s", stats.Median(refSetups))
	r.setUnbounded("wall.setup_s", "s", stats.Median(setups))

	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop()
		}
	}()
	conns := runtime.NumCPU()
	c := newClient(srv.base, conns)
	// Flush what set-up wrote, so the kernel's write-back does not land
	// in the measured phases.
	syscall.Sync()
	noise := cpuTimes()
	pid := srv.cmd.Process.Pid
	next := r.sessionSource(in.set)

	// The closed-loop phase runs first, in closedWindows windows of a fixed
	// number of sessions (what the reference host completes in the phase's
	// share of the run), so the state a durable server keeps per session
	// grows the same on any host; calibPerGap calibration runs go before,
	// between and after the windows. The server's CPU time over the windows
	// is scaled to the reference host by the calibration runs' mean. Each
	// window waits for every session it starts, so that CPU time is spent
	// on whole sessions at full load. The server's peak RSS is read when
	// the phase ends: the open loop's peak follows how many sessions happen
	// to overlap, which follows the host's speed.
	closed := &driver{c: c, ops: &r.ops}
	var slows []float64
	calib := func() error {
		for k := 0; k < calibPerGap; k++ {
			slow, err := r.calibrate()
			if err != nil {
				return err
			}
			slows = append(slows, slow)
		}
		return nil
	}
	if err := calib(); err != nil {
		return nil, err
	}
	perWindow := max(1, int(math.Round(w.ClosedRate*r.share(w.ClosedShare).Seconds()/closedWindows)))
	var serverCPU, took time.Duration
	sessions := 0
	for k := 0; k < closedWindows; k++ {
		c0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		n, d := closed.closedLoop(perWindow, conns, next)
		c1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		if err := calib(); err != nil {
			return nil, err
		}
		serverCPU += c1 - c0
		sessions += n
		took += d
	}
	if sessions == 0 {
		return nil, fmt.Errorf("no closed-loop session completed")
	}
	refCPU := time.Duration(float64(serverCPU) / stats.Mean(slows))
	peakRSS, err := procPeakRSS(pid)
	if err != nil {
		return nil, err
	}

	// The open-loop phase follows on the same server.
	open := &driver{c: c, ops: &r.ops}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	in.lateness = open.openLoop(r.seed, w.Rate, r.share(w.OpenShare), w.Think, conns, next)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: host during the twin phases: %s\n", hostNoise(noise))
	logTwinMetrics(c)
	c.close()
	stopped = true
	if err := srv.stop(); err != nil {
		r.ops.fail(err)
	}
	closed.verify(in.refs)
	open.verify(in.refs)
	fmt.Fprintf(os.Stderr, "perfbench: twin stage: %d closed-loop sessions, %d open-loop sessions (%d what-ifs)\n",
		closed.sessions, open.sessions, open.whatif.n())
	fmt.Fprintf(os.Stderr, "perfbench: server CPU per session: closed loop %.3f ms (%.3f ms on the reference host), open loop %.3f ms\n",
		ms(serverCPU)/float64(sessions), ms(refCPU)/float64(sessions), ms(cpu1-cpu0)/float64(max(open.sessions, 1)))

	r.set("server_cpu_ms_per_session", "ms", ms(refCPU)/float64(sessions))
	r.set("server_peak_rss_mb", "MB", peakRSS)
	r.setUnbounded("load.open_loop_peak_rss_mb", "MB", srv.maxRSS)
	r.setUnbounded("wall.whatif_ms.p50", "ms", open.whatif.windowPct(0.50))
	r.setUnbounded("wall.whatif_ms.p99", "ms", open.whatif.windowPct(0.99))
	r.setUnbounded("wall.mutate_ms.p50", "ms", open.mutate.windowPct(0.50))
	r.setUnbounded("wall.mutate_ms.p99", "ms", open.mutate.windowPct(0.99))
	r.setUnbounded("wall.sessions_per_s", "1/s", float64(sessions)/took.Seconds())
	return in, nil
}

// stateDir prepares a fresh state directory for a durable server: a copy
// of the pre-populated one. It returns "" for in-memory workloads.
func (r *run) stateDir(in *twinInputs, name string) (string, error) {
	if in.populated == "" {
		return "", nil
	}
	dir := filepath.Join(r.work, name)
	if err := copyTree(in.populated, dir); err != nil {
		return "", fmt.Errorf("copy state directory: %w", err)
	}
	return dir, nil
}

// sessionSource hands out sessions in a fixed order. Session j resumes a
// pre-populated session when a seeded coin says so: the k-th resume takes
// session k mod Populated, for its (k div Populated)-th time; should that
// session still be in flight from its previous resume, session j creates
// instead. Otherwise session j creates a session of class j mod Classes.
func (r *run) sessionSource(set *scriptSet) func() *sessionRun {
	var mu sync.Mutex
	j, k := 0, 0
	busy := map[int]bool{}
	return func() *sessionRun {
		mu.Lock()
		defer mu.Unlock()
		idx := j
		j++
		if len(set.resumed) > 0 && splitmix(r.seed^uint64(idx)<<8)&1 == 1 {
			p, use := k%r.w.Populated, k/r.w.Populated
			if !busy[p] {
				k++
				busy[p] = true
				c := p % len(set.resumed)
				return &sessionRun{sc: set.resumed[c], class: c, use: use, id: populatedID(p), finish: func() {
					mu.Lock()
					delete(busy, p)
					mu.Unlock()
				}}
			}
		}
		c := idx % len(set.created)
		return &sessionRun{sc: set.created[c], class: c, use: -1}
	}
}

func populatedID(p int) string { return fmt.Sprintf("s%06d", p+1) }

// populate writes the pre-populated state directory through the twin's
// own journal: session p is built from resumed class p mod Classes.
func populate(dir string, w workload, set *scriptSet) error {
	m := twin.NewManager(twin.Config{MaxSessions: w.Populated + 1, StateDir: dir, Fsync: twin.FsyncNever})
	defer m.Close()
	ip := &inproc{m: m}
	for p := 0; p < w.Populated; p++ {
		sc := set.resumed[p%len(set.resumed)]
		id, err := ip.session("", sc, []step{createStep(sc.cfg)}, nil)
		if err == nil {
			_, err = ip.session(id, sc, sc.history, nil)
		}
		if err != nil {
			return err
		}
		if id != populatedID(p) {
			return fmt.Errorf("session %d got id %s, want %s", p, id, populatedID(p))
		}
	}
	return nil
}

// checkRecovery recovers the first pre-populated session of each resumed
// class in process and checks that its published event prefix is the one
// the in-memory reference shows on its first resume, which the resumed
// sessions' /log replies are then checked against.
func (r *run) checkRecovery(in *twinInputs) error {
	n := len(in.set.resumed)
	dir := filepath.Join(r.work, "recovered")
	for p := 0; p < n; p++ {
		if err := copyTree(filepath.Join(in.populated, populatedID(p)), filepath.Join(dir, populatedID(p))); err != nil {
			return err
		}
	}
	defer os.RemoveAll(dir)
	m := twin.NewManager(twin.Config{MaxSessions: n + 1, StateDir: dir})
	defer m.Close()
	for p := 0; p < n; p++ {
		s, err := m.Get(populatedID(p))
		if err != nil {
			return fmt.Errorf("recover %s: %w", populatedID(p), err)
		}
		evs, err := s.EmittedPrefix()
		if err != nil {
			return err
		}
		ref := in.refs.resumedRef(p, 0)
		if ref.err != nil {
			return ref.err
		}
		r.ops.ok()
		for i, st := range in.set.resumed[p].steps {
			if st.op == opLog && !bytes.Equal(ref.logs[i], encodeLog(evs)) {
				r.ops.mismatch(fmt.Errorf("recovered session %s publishes a different event prefix than the in-memory twin", populatedID(p)))
			}
		}
	}
	return nil
}

// logTwinMetrics prints the server's durability counters to stderr.
func logTwinMetrics(c *client) {
	resp, err := c.hc.Get(c.base + "/twin/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		fmt.Fprintf(os.Stderr, "perfbench: server counters %s", body)
	}
}
