package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// target is a poetd the passes can start on a WAL directory, crash, and
// start again. procTarget is the real daemon process; inprocTarget (see
// inproc.go) is the same serving stack inside the bench process, used by the
// smoke test and the per-layer server rung.
type target interface {
	// start brings the daemon up on walDir (recovering whatever is there)
	// and returns the address it serves on.
	start(walDir string) (addr string, err error)
	// crash stops the daemon without letting it flush or shut down, and
	// returns once it is gone.
	crash() error
	// usage reports the daemon's cumulative CPU time and peak resident set.
	usage() (cpu time.Duration, hwmBytes int64, err error)
	// exited reports whether the daemon stopped on its own.
	exited() bool
}

// procTarget runs the poetd binary.
type procTarget struct {
	bin   string
	flags []string
	cmd   *exec.Cmd
	done  chan struct{} // closed when cmd.Wait returns
}

func (t *procTarget) start(walDir string) (string, error) {
	port, err := freePort()
	if err != nil {
		return "", err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-wal", walDir}, t.flags...)
	t.cmd = exec.Command(t.bin, args...)
	// poetd logs to its stdout; ours carries the result line, so both go to
	// stderr (at -log-level error that is nothing unless it fails).
	t.cmd.Stdout, t.cmd.Stderr = os.Stderr, os.Stderr
	if err := t.cmd.Start(); err != nil {
		return "", fmt.Errorf("start poetd: %w", err)
	}
	t.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // a crashed daemon reports "signal: killed"; exited() is what callers check
		close(done)
	}(t.cmd, t.done)
	return addr, nil
}

func (t *procTarget) crash() error {
	if t.cmd == nil {
		return nil
	}
	err := t.cmd.Process.Kill()
	<-t.done // reaped: its port and WAL files are released
	t.cmd = nil
	if err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	return nil
}

func (t *procTarget) exited() bool {
	if t.cmd == nil {
		return true
	}
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// usage sums the run time of the daemon's threads from schedstat, which
// counts nanoseconds; /proc/<pid>/stat counts 10 ms ticks and is the fallback
// on kernels built without scheduler statistics.
func (t *procTarget) usage() (time.Duration, int64, error) {
	pid := t.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	var hwm int64
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			hwm = kb << 10
		}
	}
	var ns int64
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	for _, f := range tasks {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if fields := strings.Fields(string(b)); len(fields) > 0 {
			v, _ := strconv.ParseInt(fields[0], 10, 64)
			ns += v
		}
	}
	if ns > 0 {
		return time.Duration(ns), hwm, nil
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(utime+stime) * (time.Second / 100), hwm, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// selfCPU is the bench process's own CPU time, user plus system.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
