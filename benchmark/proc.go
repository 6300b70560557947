package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves outside its own memory: the
// child processes and the scratch directory. close removes both, and
// main reaches it on every exit path, a signal and an oracle failure
// included, so no `logstudy serve` outlives the benchmark.
type harness struct {
	bin  string // the built cmd/logstudy
	root string // scratch directory of this run, removed on close

	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
}

func newHarness(bin, work string) (*harness, error) {
	abs, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(abs); err != nil {
		return nil, fmt.Errorf("logstudy binary: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{bin: abs, root: root, procs: map[*exec.Cmd]struct{}{}}, nil
}

// close kills every child still running, waits for it, and removes the
// scratch directory. It is safe to call more than once.
func (h *harness) close() {
	h.mu.Lock()
	procs := h.procs
	h.procs = map[*exec.Cmd]struct{}{}
	h.mu.Unlock()
	for cmd := range procs {
		cmd.Process.Kill()
		cmd.Wait()
	}
	os.RemoveAll(h.root)
}

// onSignal closes the harness and exits when the benchmark is
// interrupted.
func (h *harness) onSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		h.close()
		os.Exit(130)
	}()
}

// tempDir makes a fresh directory under the run's scratch root.
func (h *harness) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(h.root, prefix+"-")
}

func (h *harness) start(args ...string) (*exec.Cmd, io.ReadCloser, error) {
	cmd := exec.Command(h.bin, args...)
	// The child dies with the harness even when the harness is killed
	// outright and close never runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	h.mu.Lock()
	h.procs[cmd] = struct{}{}
	h.mu.Unlock()
	return cmd, out, nil
}

// wait reaps a child and returns its resource usage.
func (h *harness) wait(cmd *exec.Cmd) (*syscall.Rusage, error) {
	err := cmd.Wait()
	h.mu.Lock()
	delete(h.procs, cmd)
	h.mu.Unlock()
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		ru = &syscall.Rusage{}
	}
	return ru, err
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// buildStore runs `logstudy build-store -in` to completion and reports
// its wall time and resource usage.
func (h *harness) buildStore(sys, in, dir string, extra []string) (wall float64, ru *syscall.Rusage, err error) {
	args := append([]string{"build-store", "-system", sys, "-in", in, "-dir", dir}, extra...)
	t0 := time.Now()
	cmd, out, err := h.start(args...)
	if err != nil {
		return 0, nil, err
	}
	io.Copy(io.Discard, out)
	ru, err = h.wait(cmd)
	if err != nil {
		return 0, nil, fmt.Errorf("build-store: %w", err)
	}
	return time.Since(t0).Seconds(), ru, nil
}

// server is one `logstudy serve` subprocess.
type server struct {
	h       *harness
	cmd     *exec.Cmd
	api     string // http://host:port of the API
	metrics string // http://host:port of -http (/metrics)
	startMs float64
	drained chan struct{}
}

var bannerRE = regexp.MustCompile(`on http://([^/\s]+)/`)

// serve starts `logstudy -http localhost:0 serve -addr localhost:0` on
// dir and waits until /healthz answers. Both listeners bind port 0, so
// the kernel picks free ports and the banners say which.
func (h *harness) serve(dir string, extra []string) (*server, error) {
	args := append([]string{"-http", "localhost:0", "serve", "-dir", dir, "-addr", "localhost:0"}, extra...)
	t0 := time.Now()
	cmd, out, err := h.start(args...)
	if err != nil {
		return nil, err
	}
	s := &server{h: h, cmd: cmd, drained: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(s.drained)
		var a [2]string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			m := bannerRE.FindStringSubmatch(line)
			switch {
			case m == nil:
			case strings.Contains(line, "/metrics"):
				a[1] = "http://" + m[1]
			case strings.Contains(line, "API"):
				a[0] = "http://" + m[1]
				addrs <- a
			}
		}
	}()
	select {
	case a := <-addrs:
		s.api, s.metrics = a[0], a[1]
	case <-s.drained:
		h.wait(cmd)
		return nil, errors.New("serve exited before it listened")
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("serve did not listen within 60s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(s.api + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("serve /healthz did not answer within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.startMs = float64(time.Since(t0)) / 1e6
	return s, nil
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.drained
	s.h.wait(s.cmd)
}

// stop asks for the graceful shutdown (SIGTERM drains the admission
// queue and seals the tail) and waits for the process to end.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(60*time.Second, func() { s.cmd.Process.Kill() })
	defer timer.Stop()
	<-s.drained
	if _, err := s.h.wait(s.cmd); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// cpu is the server's user+system CPU seconds so far, from
// /proc/<pid>/stat, so a phase can be charged its own share.
func (s *server) cpu() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on every Linux Go supports
}

// rssPeakMB is the server's peak resident set so far, VmHWM from
// /proc/<pid>/status. The rusage the wait returns cannot be used for
// this: Linux seeds a child's ru_maxrss with the peak of the address
// space it was forked from, which here is the harness's own.
func (s *server) rssPeakMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// counters scrapes the server's Prometheus text and returns the plain
// (unlabelled and labelled) sample values by name.
func (s *server) counters() (map[string]float64, error) {
	resp, err := http.Get(s.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
