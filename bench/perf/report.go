package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
)

// value is one metric reading in the contract's result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output: exactly these
// four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func metricsOf(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func (r e2eResult) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":           r.setupS,
		"jobs_per_s":        r.jobsPerS,
		"job_latency_p50_s": r.latP50,
		"job_latency_p90_s": r.latP90,
		"cpu_ms_per_job":    r.cpuMsPerJob,
	}
}

func printTable(w io.Writer, title string, defs []metricDef, got map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-46s %14.4f %s\n", d.Name, got[d.Name], d.Unit)
	}
}

// hostInfo is what a result needs to be compared with another: the code,
// the machine and how busy it was.
type hostInfo struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// OutFS is the filesystem under the output directory, which is where
	// the journal of admit-durable lives.
	OutFS string `json:"journal_dir_fs"`
	// OtherClusters lists s3cluster processes that were already running
	// and competing for the cores.
	OtherClusters []int `json:"other_s3cluster_pids,omitempty"`
}

func gatherHost(repoRoot, outDir string) hostInfo {
	h := hostInfo{
		Commit:        "unknown",
		NProc:         goruntime.NumCPU(),
		GOMAXPROCS:    goruntime.GOMAXPROCS(0),
		GoVersion:     goruntime.Version(),
		Kernel:        "unknown",
		OutFS:         fsType(outDir),
		OtherClusters: otherClusters(),
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil { // a benchmark checkout is not a git repository
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// workloadReport is one workload's entry in the result file.
type workloadReport struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// Samples is the latency sample count; Beyond how many of them lie
	// above the reported p90.
	Samples         int `json:"latency_samples,omitempty"`
	Beyond          int `json:"latency_samples_beyond_p90,omitempty"`
	OrderViolations int `json:"order_violations"`
	// HostSpeed is the mean probe speed in each boot's window as a share
	// of refSpeed: the factor between the wall clock and the clock the
	// end-to-end metrics are on.
	HostSpeed  []float64 `json:"host_speed"`
	HostDrift  bool      `json:"host_drift"`
	Mismatches []string  `json:"mismatches,omitempty"`
	Trace      string    `json:"trace,omitempty"`
}

type resultFile struct {
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark's acceptance check computes spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
