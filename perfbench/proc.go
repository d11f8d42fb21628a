package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark started, so each exit path —
// success, a failed check, a signal — can kill and reap them all.
var children = struct {
	sync.Mutex
	procs   map[int]*exec.Cmd
	started []*exec.Cmd // every child ever started, for the tests
}{procs: map[int]*exec.Cmd{}}

// child is one started process.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// startChild starts bin with args, logging to logPath. The child is killed
// with SIGKILL if the benchmark itself dies (Pdeathsig), and stop() kills
// it on every ordinary path.
func startChild(bin string, args []string, logPath string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	children.Lock()
	err = cmd.Start()
	if err == nil {
		children.procs[cmd.Process.Pid] = cmd
		children.started = append(children.started, cmd)
	}
	children.Unlock()
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: child pid %d: %s\n", cmd.Process.Pid, filepath.Base(bin))
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop kills the child's process group and waits until it has exited.
func (c *child) stop() {
	if c == nil {
		return
	}
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	<-c.done
	children.Lock()
	delete(children.procs, c.pid())
	children.Unlock()
}

// killAll kills and reaps every child still running.
func killAll() {
	children.Lock()
	procs := make([]*exec.Cmd, 0, len(children.procs))
	for _, cmd := range children.procs {
		procs = append(procs, cmd)
	}
	children.procs = map[int]*exec.Cmd{}
	children.Unlock()
	for _, cmd := range procs {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		// Wait is owned by the child's reaper goroutine; poll until the
		// process is gone so no child outlives the benchmark.
		for i := 0; i < 500 && processAlive(cmd.Process.Pid); i++ {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// processAlive reports whether pid names a live (not zombie) process.
func processAlive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	fields := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	return len(fields) > 0 && fields[0] != "Z" && fields[0] != "X"
}

// freeAddr returns a loopback address with a port the kernel just handed
// out; the child binds it moments later.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// waitReady polls url until it answers or the child exits.
func waitReady(ctx context.Context, c *child, url string) error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during start-up", filepath.Base(c.cmd.Path))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(url); err == nil {
			resp.Body.Close()
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready at %s", filepath.Base(c.cmd.Path), url)
}

// procStat is a sample of a process's counters from /proc.
type procStat struct {
	cpu    time.Duration // time on CPU, all threads
	ctxsw  int64         // voluntary + involuntary, all threads
	hwmKB  int64
	thread int64
}

// readProc samples pid. CPU time is the sum of its threads' schedstat
// run time, which the scheduler keeps in nanoseconds; utime and stime in
// /proc/<pid>/stat are sampled at clock ticks and too coarse for
// sub-second windows.
func readProc(pid int) (procStat, error) {
	var s procStat
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	s.hwmKB = statusField(status, "VmHWM:")
	s.thread = statusField(status, "Threads:")
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		if tb, err := os.ReadFile(t + "/status"); err == nil {
			s.ctxsw += statusField(tb, "voluntary_ctxt_switches:") + statusField(tb, "nonvoluntary_ctxt_switches:")
		}
		if sb, err := os.ReadFile(t + "/schedstat"); err == nil {
			f := strings.Fields(string(sb))
			if len(f) > 0 {
				ns, _ := strconv.ParseInt(f[0], 10, 64)
				s.cpu += time.Duration(ns)
			}
		}
	}
	return s, nil
}

func statusField(status []byte, key string) int64 {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// hostCPU is a sample of the host's aggregate CPU counters (/proc/stat).
type hostCPU struct{ total, steal int64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
