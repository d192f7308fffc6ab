package main

import (
	"bytes"
	"context"
	"encoding/json"
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
	"syscall"
	"time"
)

// Daemon lifecycle: build cmd/partitiond from the checkout, start it on free
// loopback ports with production-default flags, wait until it serves, read
// its CPU time and peak RSS from /proc, and stop it with SIGTERM, waiting
// for the drain.

const (
	readyTimeout = 30 * time.Second
	// drainWait exceeds partitiond's default -drain (15 s), after which the
	// daemon exits on its own.
	drainWait = 20 * time.Second
	// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
	// 100 on every Linux ABI Go supports).
	clockTick = 10 * time.Millisecond
)

// buildDaemon compiles cmd/partitiond from the checkout at root into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "partitiond")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/partitiond")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/partitiond: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr returns a loopback address with a port the kernel just handed
// out. Another process could take it before the daemon binds; the daemon
// then exits and waitReady reports its log.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// daemon is one partitiond child process.
type daemon struct {
	addr    string
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process has been reaped
	waitErr error         // valid after exited is closed
}

func startDaemon(bin, addr string, peers []string, logPath string) (*daemon, error) {
	args := []string{"-addr", addr}
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","), "-self", addr)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If this process dies without stopping the daemon (SIGKILL, a panic on
	// a client goroutine), the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start partitiond: %w", err)
	}
	d := &daemon{addr: addr, logPath: logPath, cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

// logTail returns the end of the daemon's log for error reports.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(b)
}

// stop sends SIGTERM and waits for the drain, killing the daemon if it
// outlives drainWait. It returns once the process has been reaped.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("partitiond %s: %v; log tail:\n%s", d.addr, d.waitErr, d.logTail())
		}
		return nil
	case <-time.After(drainWait):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("partitiond %s did not drain within %v and was killed", d.addr, drainWait)
	}
}

// procStats reads the daemon's CPU time (user + system) and peak resident
// set size from /proc.
func (d *daemon) procStats() (cpu time.Duration, hwmKB int64, err error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// The command name is parenthesized and may contain spaces; the fields
	// after it start at field 3 (state), so utime and stime (fields 14 and
	// 15) are at offsets 11 and 12.
	var f []string
	if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
		f = strings.Fields(string(stat[i+1:]))
	}
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("unexpected /proc/%s/stat: %q", pid, stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			hwmKB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return time.Duration(utime+stime) * clockTick, hwmKB, err
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// fleet is the set of daemons one workload runs against: one standalone
// daemon, or the nodes of a cluster.
type fleet struct {
	daemons []*daemon
	probe   *http.Client
}

// startFleet starts n daemons (a cluster when n > 1) and waits until every
// one serves /healthz and, for a cluster, sees every peer alive. Daemon logs
// go to logDir, named by prefix and node index.
func startFleet(ctx context.Context, bin string, n int, logDir, prefix string) (*fleet, error) {
	addrs := make([]string, n)
	for i := range addrs {
		var err error
		if addrs[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	var peers []string
	if n > 1 {
		peers = addrs
	}
	f := &fleet{probe: &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{Proxy: nil}}}
	for i, addr := range addrs {
		d, err := startDaemon(bin, addr, peers, filepath.Join(logDir, fmt.Sprintf("%s-node%d.log", prefix, i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
	}
	for _, d := range f.daemons {
		if err := f.waitReady(ctx, d, n); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// waitReady polls until d answers /healthz with 200 and, in a cluster of n,
// /v1/cluster reports all n peers alive. It fails fast with the log tail if
// the daemon exits first (a port already taken, a bad flag).
func (f *fleet) waitReady(ctx context.Context, d *daemon, n int) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("partitiond %s exited before it was ready (%v); log tail:\n%s", d.addr, d.waitErr, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if f.ready(ctx, d, n) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("partitiond %s not ready after %v; log tail:\n%s", d.addr, readyTimeout, d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *fleet) ready(ctx context.Context, d *daemon, n int) bool {
	if _, err := f.get(ctx, d, "/healthz"); err != nil {
		return false
	}
	if n == 1 {
		return true
	}
	body, err := f.get(ctx, d, "/v1/cluster")
	if err != nil {
		return false
	}
	var st struct {
		Alive int `json:"alive"`
	}
	return json.Unmarshal(body, &st) == nil && st.Alive == n
}

// get fetches a daemon endpoint, failing on any status but 200.
func (f *fleet) get(ctx context.Context, d *daemon, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.probe.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// maxConcurrent reads the daemon's solve-slot count from /v1/solvers; it
// defaults to the daemon's GOMAXPROCS.
func (f *fleet) maxConcurrent(ctx context.Context) (int, error) {
	body, err := f.get(ctx, f.daemons[0], "/v1/solvers")
	if err != nil {
		return 0, err
	}
	var s struct {
		Limits struct {
			MaxConcurrent int `json:"maxConcurrent"`
		} `json:"limits"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return 0, fmt.Errorf("decode /v1/solvers: %w", err)
	}
	return s.Limits.MaxConcurrent, nil
}

// stats sums CPU time and peak RSS over the fleet.
func (f *fleet) stats() (cpu time.Duration, hwmKB int64, err error) {
	for _, d := range f.daemons {
		c, h, err := d.procStats()
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		hwmKB += h
	}
	return cpu, hwmKB, nil
}

// stop stops every daemon concurrently and waits for all of them.
func (f *fleet) stop() error {
	f.probe.CloseIdleConnections()
	errs := make([]error, len(f.daemons))
	var wg sync.WaitGroup
	for i, d := range f.daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.stop()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
