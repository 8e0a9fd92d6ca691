package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// buildServer builds cmd/urllangid-serve from the checkout at root into
// dir and returns the binary's path.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "urllangid-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/urllangid-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building urllangid-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// serverArgs is the one server configuration every workload runs
// against: both tiers, the cascade over them, and the result cache on
// the fast tier (the default route). A cascade slot never caches.
func serverArgs(fx *fixture, addr string) []string {
	return []string{
		"-addr", addr,
		"-model", "fast=" + fx.fastPath,
		"-model", "slow=" + fx.slowPath,
		"-cascade", "cascade=fast,slow",
		"-cache", strconv.Itoa(cacheEntries),
	}
}

// server is one running child: urllangid-serve or the transport stub.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

// startServer execs urllangid-serve on a free loopback port and returns
// once its /readyz answers 200, with the time that took.
func startServer(bin string, fx *fixture) (*server, time.Duration, error) {
	return startProcess(bin, func(addr string) []string { return serverArgs(fx, addr) })
}

// startProcess execs bin with args(addr) for a free loopback addr and
// returns once GET /readyz answers 200, with the time that took.
func startProcess(bin string, args func(addr string) []string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{base: "http://" + addr}
	s.cmd = exec.Command(bin, args(addr)...)
	s.cmd.Stderr = &s.stderr
	// The child dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	errc := make(chan error, 1)
	spawner <- func() { errc <- s.cmd.Start() }
	if err := <-errc; err != nil {
		return nil, 0, err
	}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for deadline := start.Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("server on %s not ready after 10s: %s", addr, s.stderr.Bytes())
}

// spawner runs the start of every child on one OS thread that lives as
// long as the process. Pdeathsig fires when the thread that started a
// child exits, and the runtime ends a thread whose goroutine exits while
// locked to it; this goroutine never exits.
var spawner = make(chan func())

func init() {
	go func() {
		runtime.LockOSThread()
		for start := range spawner {
			start()
		}
	}()
}

// kill stops the child at once and waits for it to exit.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// stop asks the child to drain and exit, killing it after 5s.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return errors.New("server did not drain within 5s")
	}
}

// pause stops the child with SIGSTOP and returns once every one of its
// threads has stopped, so that it does no work until resume.
func (s *server) pause() error {
	if err := s.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	// The kernel reports the stop to the parent only once the whole
	// thread group has stopped. This wait does not reap the child.
	var ws syscall.WaitStatus
	if _, err := syscall.Wait4(s.cmd.Process.Pid, &ws, syscall.WUNTRACED, nil); err != nil {
		return fmt.Errorf("waiting for pid %d to stop: %w", s.cmd.Process.Pid, err)
	}
	if !ws.Stopped() {
		return fmt.Errorf("pid %d ended while pausing (wait status %#x)", s.cmd.Process.Pid, uint32(ws))
	}
	// The last thread to stop reports the stop just before it sleeps, so
	// its last microseconds may still be charged: wait for the CPU clock
	// to hold still.
	prev, err := s.cpu()
	for i := 0; err == nil && i < 100; i++ {
		time.Sleep(100 * time.Microsecond)
		var cur time.Duration
		if cur, err = s.cpu(); err == nil && cur == prev {
			return nil
		}
		prev = cur
	}
	if err != nil {
		return err
	}
	return fmt.Errorf("pid %d still used CPU 10ms after it stopped", s.cmd.Process.Pid)
}

func (s *server) resume() error { return s.cmd.Process.Signal(syscall.SIGCONT) }

// setupTime is the median of coldStarts cold starts of the server, each
// the time from exec until the first 200 from /readyz with the model
// files already on disk. Each alternates with a cold start of a stub
// with nothing to load, which gives the host's speed for it, and is
// scaled to refStubStart.
func setupTime(bin string, fx *fixture, dir string) (float64, error) {
	empty := filepath.Join(dir, "stub-empty.refs")
	if err := writeStubRefs(empty, &workload{}); err != nil {
		return 0, err
	}
	setups := make([]float64, coldStarts)
	for i := range setups {
		s, d, err := startServer(bin, fx)
		if err != nil {
			return 0, err
		}
		s.kill()
		stub, sd, err := startStub(empty)
		if err != nil {
			return 0, err
		}
		stub.kill()
		setups[i] = d.Seconds() * float64(refStubStart) / float64(sd)
	}
	return median(setups), nil
}

// cpu returns the child's user plus system CPU time so far: the total
// /proc/<pid>/stat reports in 10 ms ticks, read from the process's
// CPU-time clock at nanosecond resolution.
func (s *server) cpu() (time.Duration, error) {
	var ts syscall.Timespec
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED), from the kernel's
	// include/linux/posix-timers.h.
	clock := ^s.cmd.Process.Pid<<3 | 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("reading the CPU clock of pid %d: %w", s.cmd.Process.Pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSS returns the child's peak resident set (VmHWM) in MiB.
func (s *server) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// modelCounters is the sum over model slots of the server's per-model
// URL counters.
type modelCounters struct{ urls, hits, deduped float64 }

// counters scrapes the child's /metrics.
func (s *server) counters() (modelCounters, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return modelCounters{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return modelCounters{}, err
	}
	var c modelCounters
	for _, line := range strings.Split(string(body), "\n") {
		name, _, _ := strings.Cut(line, "{")
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		switch name {
		case "urllangid_model_urls_total":
			c.urls += v
		case "urllangid_model_cache_hits_total":
			c.hits += v
		case "urllangid_model_deduped_total":
			c.deduped += v
		}
	}
	return c, nil
}

// cpuTimes is the machine-wide jiffy split from the first line of
// /proc/stat, enough to compute the share of time the hypervisor stole.
type cpuTimes struct{ steal, total int64 }

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

func stealRatio(a, b cpuTimes) float64 {
	if b.total == a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
