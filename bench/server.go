package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/ipg-serve from the repository at root into
// dir and returns the binary's path.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "ipg-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ipg-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build ipg-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running ipg-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr syncBuffer
	exited chan struct{}
	err    error // the process's exit error, valid once exited is closed
}

// syncBuffer collects the child's standard error for failure reports.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServer boots ipg-serve on a free loopback port with the
// benchmark's flags (every other flag keeps its default) and waits until
// /readyz answers 200. traced adds full-rate span sampling.
func startServer(ctx context.Context, bin, root string, traced bool) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := bootOnce(ctx, bin, root, traced)
		if err == nil {
			return s, nil
		}
		// A port taken between probing and binding makes the child exit;
		// try another.
		lastErr = err
	}
	return nil, lastErr
}

func bootOnce(ctx context.Context, bin, root string, traced bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	args := []string{"-addr", addr, "-engine", "auto", "-log-level", "warn",
		"-grammar", "sdf=" + sdfGrammarPath, "-grammar", "calc=" + calcGrammarPath}
	if traced {
		args = append(args, "-trace-sample", "1", "-trace-ring", "4096")
	}
	s := &server{cmd: exec.Command(bin, args...), base: "http://" + addr, exited: make(chan struct{})}
	s.cmd.Dir = root
	s.cmd.Stderr = &s.stderr
	// Should the benchmark die without stopping it, the kernel kills the
	// child too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ipg-serve: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(ctx, 30*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// readyPoll is the pause between /readyz polls. It is a small share of
// a boot (about 10 ms), so the poll adds little to setup_s.
const readyPoll = 100 * time.Microsecond

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(ctx context.Context, timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("ipg-serve exited before ready: %v\n%s", s.err, s.stderr.String())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		sleepUntil(time.Now().Add(readyPoll))
	}
	return fmt.Errorf("ipg-serve not ready after %v\n%s", timeout, s.stderr.String())
}

// stop drains the server with SIGTERM, kills it if it has not exited
// after ten seconds, and waits for the process to end.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already exited child is reaped below
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // as above
		<-s.exited
	}
}

// cpuTicks reads the server's user plus system CPU time from
// /proc/<pid>/stat, in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; the fields
	// after it start with the state (field 3). utime and stime are
	// fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// rssMB reads the server's resident set (VmRSS) in MiB.
func (s *server) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// sampleRSS samples the server's resident set every interval until the
// returned stop function is called, which returns the samples in MiB. A
// sample that cannot be read (the server died) is left out; a failed
// request reports the death.
func (s *server) sampleRSS(every time.Duration) (stop func() []float64) {
	done, finished := make(chan struct{}), make(chan struct{})
	var samples []float64
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if v, err := s.rssMB(); err == nil {
					samples = append(samples, v)
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-finished
		return samples
	}
}

// tally counts requests across a run; failures keeps the first few
// failure messages for the report.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string
}

// count records one attempted operation with its outcome and reports
// whether it succeeded.
func (t *tally) count(err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.failures) < 5 {
		t.failures = append(t.failures, err.Error())
	}
	return false
}

// client sends ops to one server over at most two connections.
type client struct {
	hc    *http.Client
	base  string
	tally *tally
	bufs  sync.Pool
}

// maxConns bounds the generator's connections to the server.
const maxConns = 2

func newClient(base string, t *tally) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, tally: t,
		bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends o and validates the reply. It reports whether the request
// succeeded: a transport error, a non-2xx status or a wrong answer is a
// failure.
func (c *client) do(o op) bool {
	buf := c.bufs.Get().(*bytes.Buffer)
	defer c.bufs.Put(buf)
	err := c.roundTrip(o, buf)
	if err == nil {
		err = o.check(buf.Bytes())
	}
	return c.tally.count(err)
}

// roundTrip sends o and reads a 2xx reply into buf.
func (c *client) roundTrip(o op, buf *bytes.Buffer) error {
	req, err := http.NewRequest(o.method, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return statusErr(o, resp.StatusCode, buf.Bytes(), err)
}

// statusErr reports a reply that could not be read or is not 2xx.
func statusErr(o op, status int, body []byte, readErr error) error {
	switch {
	case readErr != nil:
		return fmt.Errorf("%s %s: read reply: %w", o.method, o.path, readErr)
	case status/100 != 2:
		return fmt.Errorf("%s %s: status %d: %s", o.method, o.path, status, bytes.TrimSpace(body))
	}
	return nil
}

// getJSON fetches a control endpoint (stats, trace) outside the timed
// phases.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}
