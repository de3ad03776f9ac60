package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildCluster compiles cmd/s3cluster from the enclosing s3sched module
// into dir and returns the binary's path. Build time is part of no metric.
func buildCluster(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "s3cluster")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/s3cluster")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/s3cluster in %s: %v\n%s", repoRoot, err, out)
	}
	return bin, nil
}

// child is one s3cluster process in its own process group, its output
// kept in a log file under the run directory.
type child struct {
	cmd   *exec.Cmd
	log   *os.File
	lines chan string // stdout lines, closed at EOF
}

func startChild(bin, logPath string, args ...string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	// Own process group, so one kill(-pgid) takes anything the child may
	// spawn; Pdeathsig covers the bench itself dying without cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, log: log, lines: make(chan string, 64)} // 64: more lines than a boot prints, so the reader never blocks before readiness
	go func() {
		defer close(c.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Fprintln(log, sc.Text())
			select {
			case c.lines <- sc.Text():
			default: // nobody is waiting for addresses any more
			}
		}
	}()
	return c, nil
}

// waitLine returns the first submatch of re in the child's stdout.
func (c *child) waitLine(ctx context.Context, re *regexp.Regexp) (string, error) {
	for {
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("waiting for %q on pid %d: %w", re, c.cmd.Process.Pid, ctx.Err())
		case line, ok := <-c.lines:
			if !ok {
				return "", fmt.Errorf("pid %d exited before printing %q (see %s)", c.cmd.Process.Pid, re, c.log.Name())
			}
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1], nil
			}
		}
	}
}

// kill ends the child's whole process group and waits for it.
func (c *child) kill() {
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH when it already exited
	for range c.lines {                                   // the reader must see EOF before Wait closes the pipe
	}
	_ = c.cmd.Wait() // "signal: killed" is the expected outcome
	c.log.Close()
}

// cluster is one master and two workers in registration mode.
type cluster struct {
	master  *child
	workers []*child
	spawned time.Time // just before the master process was started
	base    string    // http://host:port of the status server
}

var (
	controlRe = regexp.MustCompile(`^control plane on (\S+);`)
	statusRe  = regexp.MustCompile(`^status dashboard: (http://[^/]+)/`)
)

const numWorkers = 2

// bootCluster starts the processes and returns once /status.json answers.
// dir receives the logs and, for journaled workloads, the journal.
func bootCluster(ctx context.Context, bin, dir string, s spec, seed int64) (*cluster, error) {
	shape := []string{
		"-blocks", strconv.Itoa(s.Blocks),
		"-blocksize", strconv.FormatInt(s.BlockSize, 10),
		"-seed", strconv.FormatInt(seed, 10),
	}
	margs := append([]string{
		"-role", "master", "-control", "127.0.0.1:0", "-minworkers", strconv.Itoa(numWorkers),
		"-serve", "-status", "127.0.0.1:0", "-jobs", "0",
	}, shape...)
	c := &cluster{}
	if s.Journal {
		// A journal left by an earlier run would be recovered from. The
		// journal is not fsynced: see "Known caveats" in README.md.
		journal := filepath.Join(dir, "j.wal")
		if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		margs = append(margs, "-journal", journal, "-fsync", "never")
	}
	c.spawned = time.Now()
	m, err := startChild(bin, filepath.Join(dir, "master.log"), margs...)
	if err != nil {
		return nil, err
	}
	c.master = m
	ctl, err := m.waitLine(ctx, controlRe)
	if err != nil {
		c.kill()
		return nil, err
	}
	for i := 0; i < numWorkers; i++ {
		wargs := append([]string{
			"-role", "worker", "-master", ctl, "-listen", "127.0.0.1:0",
			"-id", fmt.Sprintf("w%d", i), "-cachemb", strconv.FormatInt(s.CacheMB, 10),
		}, shape...)
		w, err := startChild(bin, filepath.Join(dir, fmt.Sprintf("worker%d.log", i)), wargs...)
		if err != nil {
			c.kill()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	if c.base, err = m.waitLine(ctx, statusRe); err != nil {
		c.kill()
		return nil, err
	}
	if err := c.waitReady(ctx); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// waitReady polls /status.json until it answers 200.
func (c *cluster) waitReady(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/status.json", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection can be reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("status server %s never became ready: %w", c.base, ctx.Err())
		case <-tick.C:
		}
	}
}

func (c *cluster) kill() {
	for _, w := range c.workers {
		w.kill()
	}
	if c.master != nil {
		c.master.kill()
	}
}

func (c *cluster) pids() (master int, workers []int) {
	for _, w := range c.workers {
		workers = append(workers, w.cmd.Process.Pid)
	}
	return c.master.cmd.Process.Pid, workers
}

// clockTick is the kernel's USER_HZ; Linux has fixed it at 100 on every
// architecture Go supports, and Go has no sysconf to ask.
const clockTick = 100

// parseStatCPU returns utime+stime in milliseconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// parseVmHWM returns the peak resident set in MB from the contents of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

func procPeakRSSmb(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// cpuSample is the cumulative CPU time of the cluster's processes.
type cpuSample struct{ master, workers float64 }

func (c *cluster) cpu() (cpuSample, error) {
	mp, wps := c.pids()
	var s cpuSample
	var err error
	if s.master, err = procCPUms(mp); err != nil {
		return s, err
	}
	for _, p := range wps {
		ms, err := procCPUms(p)
		if err != nil {
			return s, err
		}
		s.workers += ms
	}
	return s, nil
}

// otherClusters lists s3cluster processes that are not ours: they would
// compete for the two cores, so the result carries a warning.
func otherClusters() []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		comm, err := os.ReadFile(filepath.Join("/proc", e.Name(), "comm"))
		if err == nil && strings.TrimSpace(string(comm)) == "s3cluster" {
			pids = append(pids, pid)
		}
	}
	return pids
}
