package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed clock.
//
// The benchmark's vCPUs share physical cores, caches and memory with other
// tenants of the host. What the neighbours do changes the speed of this
// kind of code - allocation-heavy Go - by 25-45 %, from second to second
// and over tens of minutes, while a dependent chain of multiplies or a
// streaming read hardly notices. Unnormalised, two runs of the same code
// read as far apart as a real regression.
//
// One probe per CPU measures that speed while the workload runs: a child
// process pinned to the CPU, every thread of it in scheduling class
// SCHED_IDLE, so that it only gets the cycles the workload leaves (any
// runnable cluster thread preempts it at once). It repeats a fixed piece of
// ordinary Go - split a text into words, count them in a map, sort the
// keys - and reports iterations per second of its own CPU time. That kernel
// was chosen over an integer kernel and a pointer chase because its speed
// moved most like the workloads' own (README.md, "The host-speed clock").
// The probes also keep the vCPUs from halting, so a wake-up costs the
// guest's context switch, not the host's rescheduling of a halted vCPU.
//
// Every duration the end-to-end metrics are made of is then taken on a
// clock that runs at the probes' speed: d(tau) = speed(t)/refSpeed * dt,
// with speed the harmonic mean over the CPUs (time is proportional to
// slowness). A stretch the host ran at the reference speed counts in full;
// a stretch it ran at half that counts half.

const (
	// refSpeed, in kernel iterations per millisecond of CPU time, is what
	// the probe reads on the development host (2.1 GHz Sapphire Rapids
	// Xeon, go1.24) with quiet neighbours. It only fixes the scale:
	// readings on another machine differ by a constant factor.
	refSpeed = 5.4

	probeSlice  = 100 * time.Millisecond // a probe reports about this often
	probeMinCPU = 3 * time.Millisecond   // ... but not before it has run this long
)

// probeEnv names the CPU a process is to probe. The benchmark starts its
// own binary again with it set; a variable rather than a flag, so that the
// test binary can be a probe too. probeStageEnv marks the second stage.
const (
	probeEnv      = "S3PERF_PROBE_CPU"
	probeStageEnv = "S3PERF_PROBE_PINNED"
)

// probeIfAsked turns this process into a probe when probeEnv is set, and
// returns at once otherwise. A probe starts in two stages: the first pins
// its thread to the CPU, puts it in SCHED_IDLE and executes the binary
// again, so that every thread the second stage's runtime creates - the
// garbage collector's too - inherits both.
func probeIfAsked() {
	v := os.Getenv(probeEnv)
	if v == "" {
		return
	}
	cpu, err := strconv.Atoi(v)
	if err == nil {
		if os.Getenv(probeStageEnv) == "" {
			err = pinAndReexec(cpu)
		} else {
			err = runProbe()
		}
	}
	fmt.Fprintln(os.Stderr, "perf probe:", err)
	os.Exit(1)
}

func pinAndReexec(cpu int) error {
	goruntime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if cpu < 0 || cpu >= len(mask)*64 {
		return fmt.Errorf("cpu %d out of range", cpu)
	}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %v", cpu, e)
	}
	const schedIdle = 5
	var prio int32 // struct sched_param{0}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", e)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, []string{self}, append(os.Environ(), probeStageEnv+"=1", "GOMAXPROCS=1"))
}

// probeText is the kernel's input: about 8 KB of words drawn from a
// vocabulary of 512, small enough that the kernel's working set is back in
// the cache soon after the workload has run on the CPU.
func probeText() []byte {
	rng := rand.New(rand.NewSource(1))
	text := make([]byte, 0, 8<<10)
	for len(text) < 8<<10-12 {
		w := rng.Intn(512)
		for j, n := 0, 3+w%7; j < n; j++ {
			text = append(text, byte('a'+(w>>j+j)%26))
		}
		text = append(text, ' ')
	}
	return text
}

// probeKernel is one iteration: word count of text, keys sorted.
func probeKernel(text []byte) int {
	counts := make(map[string]int)
	start := -1
	for i, c := range text {
		switch {
		case c == ' ' && start >= 0:
			counts[string(text[start:i])]++
			start = -1
		case c != ' ' && start < 0:
			start = i
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return len(keys)
}

// runProbe is the body of a pinned probe process; it ends when the process
// is killed. Each line of its output is one slice: start and end
// (CLOCK_MONOTONIC ns, which all processes share and no clock step
// touches), iterations, CPU ns the process used.
func runProbe() error {
	out := bufio.NewWriter(os.Stdout)
	text := probeText()
	start, startMono, startCPU := time.Now(), clockNs(clockMonotonic), clockNs(clockProcessCPUTime)
	var iters, words int
	for {
		words += probeKernel(text)
		iters++
		now := time.Now()
		if now.Sub(start) < probeSlice {
			continue
		}
		cpuNow := clockNs(clockProcessCPUTime)
		if cpuNow-startCPU < int64(probeMinCPU) {
			continue
		}
		monoNow := clockNs(clockMonotonic)
		fmt.Fprintf(out, "%d %d %d %d\n", startMono, monoNow, iters, cpuNow-startCPU)
		if err := out.Flush(); err != nil {
			return err // the benchmark is gone
		}
		start, startMono, startCPU, iters = now, monoNow, cpuNow, 0
		if words < 0 { // keeps the kernel's result live
			return nil
		}
	}
}

const (
	clockMonotonic      = 1
	clockProcessCPUTime = 2
)

func clockNs(clock uintptr) int64 {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %v", e)
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// slice is one probe reading: the CPU's speed, in iterations per CPU
// millisecond, over [start, end), and the share of that time the probe ran,
// which is the share the workload left idle.
type slice struct {
	start, end time.Time
	speed      float64
	share      float64
}

// hostClock collects the probes' readings and measures durations on the
// host-speed clock. A nil *hostClock is the wall clock, which is what the
// unit tests use.
type hostClock struct {
	probes []*exec.Cmd
	wg     sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	perCPU  [][]slice // contiguous in time per CPU
	failure error
}

// startHostClock starts one probe per allowed CPU, each in its own process
// group and dying with the benchmark.
func startHostClock() (*hostClock, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	hc := &hostClock{perCPU: make([][]slice, len(cpus))}
	hc.cond = sync.NewCond(&hc.mu)
	// The probes' CLOCK_MONOTONIC readings are placed on this process's
	// monotonic timeline through one pair of readings taken together.
	base, baseMono := time.Now(), clockNs(clockMonotonic)
	at := func(mono int64) time.Time { return base.Add(time.Duration(mono - baseMono)) }
	for i, cpu := range cpus {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", probeEnv, cpu))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			hc.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			hc.stop()
			return nil, fmt.Errorf("starting the probe of cpu %d: %w", cpu, err)
		}
		hc.probes = append(hc.probes, cmd)
		hc.wg.Add(1)
		go func(i, cpu int) {
			defer hc.wg.Done()
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				var startNs, endNs, iters, cpuNs int64
				if _, err := fmt.Sscan(sc.Text(), &startNs, &endNs, &iters, &cpuNs); err != nil || cpuNs <= 0 || endNs <= startNs {
					continue
				}
				hc.mu.Lock()
				hc.perCPU[i] = append(hc.perCPU[i], slice{
					start: at(startNs), end: at(endNs),
					speed: float64(iters) / (float64(cpuNs) / 1e6),
					share: float64(cpuNs) / float64(endNs-startNs),
				})
				hc.cond.Broadcast()
				hc.mu.Unlock()
			}
			hc.mu.Lock()
			if hc.failure == nil {
				hc.failure = fmt.Errorf("the probe of cpu %d ended", cpu)
			}
			hc.cond.Broadcast()
			hc.mu.Unlock()
		}(i, cpu)
	}
	return hc, nil
}

// stop kills the probes and waits for them and their readers.
func (hc *hostClock) stop() {
	if hc == nil {
		return
	}
	for _, p := range hc.probes {
		_ = syscall.Kill(-p.Process.Pid, syscall.SIGKILL)
	}
	hc.wg.Wait() // the readers see EOF before Wait closes the pipes
	for _, p := range hc.probes {
		_ = p.Wait()
	}
	hc.probes = nil
}

// waitFor blocks until every probe has reported the slice that contains t,
// so that between() is final for any interval ending at t. A probe that
// the workload starves of CPU reports late, not wrongly.
func (hc *hostClock) waitFor(ctx context.Context, t time.Time) error {
	if hc == nil {
		return nil
	}
	stopWake := context.AfterFunc(ctx, func() {
		hc.mu.Lock()
		hc.cond.Broadcast()
		hc.mu.Unlock()
	})
	defer stopWake()
	hc.mu.Lock()
	defer hc.mu.Unlock()
	for {
		covered := true
		for _, s := range hc.perCPU {
			if len(s) == 0 || s[len(s)-1].end.Before(t) {
				covered = false
			}
		}
		switch {
		case covered:
			return nil
		case hc.failure != nil:
			return hc.failure
		case ctx.Err() != nil:
			return fmt.Errorf("waiting for the host-speed probes: %w", ctx.Err())
		}
		hc.cond.Wait()
	}
}

// between is the length of [a, b] on the host-speed clock, in seconds.
// Outside the span a CPU's probe has reported, its nearest reading holds.
func (hc *hostClock) between(a, b time.Time) float64 {
	if hc == nil {
		return b.Sub(a).Seconds()
	}
	if !b.After(a) {
		return 0
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	// The CPUs' slices end at different instants: integrate over the union
	// of their boundaries.
	cuts := []time.Time{a, b}
	for _, s := range hc.perCPU {
		i := sort.Search(len(s), func(i int) bool { return s[i].end.After(a) })
		for ; i < len(s) && s[i].end.Before(b); i++ {
			cuts = append(cuts, s[i].end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	var tau float64
	for i := 1; i < len(cuts); i++ {
		dt := cuts[i].Sub(cuts[i-1]).Seconds()
		if dt <= 0 {
			continue
		}
		mid := cuts[i-1].Add(cuts[i].Sub(cuts[i-1]) / 2)
		var slowness float64
		n := 0
		for _, s := range hc.perCPU {
			if len(s) == 0 {
				continue
			}
			j := sort.Search(len(s), func(j int) bool { return s[j].end.After(mid) })
			if j == len(s) {
				j = len(s) - 1
			}
			slowness += 1 / s[j].speed
			n++
		}
		if n == 0 {
			tau += dt
			continue
		}
		tau += dt / (refSpeed * slowness / float64(n))
	}
	return tau
}

// speedRatio is the host's mean speed over [a, b] as a share of refSpeed.
func (hc *hostClock) speedRatio(a, b time.Time) float64 {
	return ratio(hc.between(a, b), b.Sub(a).Seconds())
}

// probeShare is the share of [a, b] the probes were running, averaged over
// the CPUs: the CPU time the workload did not use. Slices are counted by
// their midpoints.
func (hc *hostClock) probeShare(a, b time.Time) float64 {
	if hc == nil {
		return 0
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	var ran, span float64
	for _, s := range hc.perCPU {
		for _, sl := range s {
			if mid := sl.start.Add(sl.end.Sub(sl.start) / 2); mid.After(a) && mid.Before(b) {
				d := sl.end.Sub(sl.start).Seconds()
				ran += sl.share * d
				span += d
			}
		}
	}
	return ratio(ran, span)
}
