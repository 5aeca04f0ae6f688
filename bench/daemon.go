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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one ontoaccessd child process serving a data directory on
// a loopback port the harness picked.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	args   []string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait returned
}

// children tracks every live child so that any exit path — a failed
// assertion, a panic unwinding through main, SIGINT — can reap them.
var children struct {
	sync.Mutex
	live map[*daemon]bool
}

// killChildren kills and waits for every daemon still running.
func killChildren() {
	children.Lock()
	live := make([]*daemon, 0, len(children.live))
	for d := range children.live {
		live = append(live, d)
	}
	children.Unlock()
	for _, d := range live {
		d.kill()
	}
}

// freeAddr asks the kernel for an unused loopback port. The listener
// is closed before the daemon binds it; a fixed port gave "connection
// refused" on quick restarts (the previous child's socket lingering),
// a fresh one per start does not.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("picking a free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("releasing the probed port: %w", err)
	}
	return addr, nil
}

// startDaemon execs bin on dataDir with the daemon's default flags and
// returns once /healthz answers 200. The returned duration is exec →
// first healthy answer.
func startDaemon(bin, dataDir string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		base:   "http://" + addr,
		args:   []string{"-addr", addr, "-data-dir", dataDir},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stderr = &d.stderr
	// The child must not outlive the harness even if the harness is
	// SIGKILLed and never runs its own cleanup.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*daemon]bool{}
	}
	children.live[d] = true
	children.Unlock()
	go func() {
		_ = d.cmd.Wait() // exit status is irrelevant: every stop is a kill or a signal
		close(d.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := t0.Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			d.forget()
			return nil, 0, fmt.Errorf("ontoaccessd exited during start-up: %s", d.stderr.String())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("ontoaccessd not ready after 20s: %v; stderr: %s", err, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) forget() {
	children.Lock()
	delete(children.live, d)
	children.Unlock()
}

// kill SIGKILLs the child and waits until it has ended: the crash in
// the durability check, and every other stop too, since nothing a run
// leaves behind is kept.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.exited
	d.forget()
}

// procSample is what /proc says about the child at one instant.
type procSample struct {
	cpu    time.Duration // utime + stime
	hwmMiB float64       // VmHWM
	rssMiB float64       // VmRSS
}

// clockTick is USER_HZ; Linux has fixed it at 100 for every
// architecture Go runs on.
const clockTick = 10 * time.Millisecond

func (d *daemon) sample() (procSample, error) {
	pid := d.cmd.Process.Pid
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after the closing parenthesis.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 18 {
		return s, errors.New("short /proc/<pid>/stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return s, errors.New("unparsable /proc/<pid>/stat times")
	}
	s.cpu = time.Duration(utime+stime) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmHWM:":
			kb, _ := strconv.ParseFloat(f[1], 64)
			s.hwmMiB = kb / 1024
		case "VmRSS:":
			kb, _ := strconv.ParseFloat(f[1], 64)
			s.rssMiB = kb / 1024
		}
	}
	if s.hwmMiB == 0 {
		return s, errors.New("no VmHWM in /proc/<pid>/status")
	}
	return s, nil
}
