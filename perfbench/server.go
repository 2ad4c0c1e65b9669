package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running lumosweb.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr strings.Builder
	outEOF chan struct{} // closed once stdout is drained
	maxRSS float64       // MB, set by stop
}

// launch starts lumosweb (durable on stateDir when non-empty) and returns
// it with its set-up time: from the launch to the first served request.
func (r *run) launch(stateDir string) (*server, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0", "-days", "1", "-simdays", "1"}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir)
	}
	if r.w.Cap > 0 {
		args = append(args, "-sessions", strconv.Itoa(r.w.Cap))
	}
	s := &server{cmd: exec.Command(filepath.Join(r.bin, "lumosweb"), args...), outEOF: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	// Should the benchmark die, the server goes with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start lumosweb: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.outEOF)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "lumosweb: serving on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.outEOF:
		s.stop()
		return nil, 0, fmt.Errorf("lumosweb exited at start-up: %s", strings.TrimSpace(s.stderr.String()))
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("lumosweb did not report its address within 60s")
	}
	resp, err := http.Get(s.base + "/twin/metrics")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("first request: status %d", resp.StatusCode)
		}
	}
	setup := time.Since(t0)
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("lumosweb first request: %w", err)
	}
	return s, setup, nil
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after 30s),
// waits for it and records its peak RSS.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.outEOF:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.outEOF
	}
	err := s.cmd.Wait()
	s.maxRSS = maxRSSMB(s.cmd.ProcessState)
	if err != nil {
		return fmt.Errorf("lumosweb: %w: %s", err, strings.TrimSpace(s.stderr.String()))
	}
	return nil
}
