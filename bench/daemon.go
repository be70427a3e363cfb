package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process and temp dir the harness owns so that
// each exit path, SIGINT included, leaves nothing behind.
type children struct {
	mu    sync.Mutex
	procs map[*daemon]struct{}
	dirs  []string
}

var owned = &children{procs: map[*daemon]struct{}{}}

func (c *children) cleanup() {
	c.mu.Lock()
	procs := make([]*daemon, 0, len(c.procs))
	for d := range c.procs {
		procs = append(procs, d)
	}
	dirs := c.dirs
	c.dirs = nil
	c.mu.Unlock()
	for _, d := range procs {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// tempDir makes a scratch directory under <root>/.bench_build/tmp,
// removed by cleanup.
func (c *children) tempDir(root, prefix string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.dirs = append(c.dirs, dir)
	c.mu.Unlock()
	return dir, nil
}

// buildDaemon compiles ./cmd/treesimd from the checkout, once per
// harness invocation; the Go build cache makes an unchanged tree cheap.
func buildDaemon(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "treesimd")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/treesimd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build ./cmd/treesimd: %v\n%s", err, msg)
	}
	return out, nil
}

// daemon is one running treesimd process.
type daemon struct {
	name  string   // "A", "B", "C" in the federation, "d" alone
	addr  string   // host:port
	extra []string // the workload's flags
	flags []string // the whole command line after the binary
	cmd   *exec.Cmd
	log   *bytes.Buffer
	done  chan struct{} // closed once Wait returned
}

func (d *daemon) base() string { return "http://" + d.addr }

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs the binary with -addr plus the given flags and waits
// until /healthz answers 200. The exec instant is returned for setup_s
// and recover_s.
func startDaemon(ctx context.Context, bin, name, addr string, flags []string, c *client) (*daemon, time.Time, error) {
	all := append([]string{"-addr", addr, "-log-level", "warn"}, flags...)
	d := &daemon{name: name, addr: addr, extra: flags, flags: all, log: &bytes.Buffer{}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, all...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, t0, fmt.Errorf("start treesimd %s: %w", name, err)
	}
	owned.mu.Lock()
	owned.procs[d] = struct{}{}
	owned.mu.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code, _, err := c.do("GET", d.base()+"/healthz", "", nil); err == nil && code == 200 {
			return d, t0, nil
		}
		select {
		case <-d.done:
			return nil, t0, fmt.Errorf("treesimd %s exited during start:\n%s", name, d.log.String())
		case <-ctx.Done():
			d.kill()
			return nil, t0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, t0, fmt.Errorf("treesimd %s not healthy after 60s:\n%s", name, d.log.String())
		}
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	owned.mu.Lock()
	delete(owned.procs, d)
	owned.mu.Unlock()
}

// clockTick is USER_HZ, fixed at 100 on Linux for every architecture Go
// supports; /proc/<pid>/stat reports CPU time in these ticks.
const clockTick = 100

// cpuTime reads utime+stime of the process from /proc.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after ")".
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// hostTicks is the first line of /proc/stat: the CPU ticks of all the
// guest's cores together, and those of them the hypervisor gave to other
// guests while this one had work to run.
type hostTicks struct{ total, steal uint64 }

// readHostTicks reads them; a line it cannot read counts as no steal.
func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostTicks{}
		}
		if t.total += n; i == 7 {
			t.steal = n
		}
	}
	return t
}

// stolenShare is the share of a period's CPU ticks the hypervisor may
// have given to other guests before the period counts as stolen. In its
// quiet and its merely slow hours this box reports a steal of about
// 0.1%; in the minutes in which it reports tens of percent a run is
// three to ten times slower, not the 1.5 times the reference can scale
// away.
const stolenShare = 0.1

func stolen(from, to hostTicks) bool {
	total := to.total - from.total
	return total > 0 && float64(to.steal-from.steal) > stolenShare*float64(total)
}

// A run that finds the hypervisor stealing waits, warming up, for at
// most maxStealWait (the driver gives a run 180 s), and all the runs in
// a checkout together for at most stealAllowance: the driver's limit on
// all its runs leaves about that much, and a host that steals all day
// must not cost every run its wait. What is left of the allowance is
// kept in .bench_build/steal_allowance_s.
const (
	maxStealWait   = 90 * time.Second
	stealAllowance = 300 * time.Second
)

// spendStealAllowance takes d from what is left of the checkout's
// allowance and says whether that much was left.
func spendStealAllowance(root string, d time.Duration) bool {
	path := filepath.Join(root, ".bench_build", "steal_allowance_s")
	left := stealAllowance.Seconds()
	if data, err := os.ReadFile(path); err == nil {
		if v, err := strconv.ParseFloat(strings.TrimSpace(string(data)), 64); err == nil {
			left = v
		}
	}
	if left < d.Seconds() {
		return false
	}
	left -= d.Seconds()
	return os.WriteFile(path, []byte(strconv.FormatFloat(left, 'f', 3, 64)+"\n"), 0o644) == nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// selfCPU is the harness's own user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding path, from /proc/self/mounts
// (longest mount point that prefixes the path).
func fsType(path string) string {
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
