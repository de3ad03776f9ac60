package s3sched_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// benchWall is BENCH_wall.json: the wall-clock trajectory, one record per
// performance change, each an A/B of bench/perf/ab.sh against its parent.
type benchWall struct {
	About     string      `json:"about"`
	Workloads []string    `json:"workloads"`
	Metrics   []string    `json:"metrics"`
	Records   []wallEntry `json:"records"`
}

type wallEntry struct {
	PR int `json:"pr"`
	// Source is "ab.sh" for a record made from a run's result lines, or
	// "changelog" for one back-filled from what CHANGES.md quoted.
	Source     string   `json:"source"`
	Commit     *string  `json:"commit"` // null when written before the change had its commit
	Parent     *string  `json:"parent"` // null for a first reading, which has no A side
	GOMAXPROCS *int     `json:"gomaxprocs"`
	HostSpeed  *float64 `json:"host_speed"`
	Pairs      *int     `json:"pairs"`
	Claim      *struct {
		Workload string `json:"workload"`
		Metric   string `json:"metric"`
	} `json:"claim"`
	Note    string                                `json:"note"`
	Results map[string]map[string]wallMeasurement `json:"results"` // workload → metric
}

// wallMeasurement is one metric on one workload: each side's median, the
// change's median over the parent's, and the pairs the change won. A
// back-filled record carries what its changelog quoted and null for the
// rest; a record made from an ab.sh run carries all four.
type wallMeasurement struct {
	Parent *float64 `json:"parent"`
	Change *float64 `json:"change"`
	Ratio  *float64 `json:"ratio"`
	Wins   *int     `json:"wins"`
}

// BENCH_wall.json names the workloads and end-to-end metrics BENCHMARK.json
// declares, every record says something about each of them, and the
// numbers it holds agree with each other.
func TestBenchWallTrajectory(t *testing.T) {
	raw, err := os.ReadFile("BENCH_wall.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var wall benchWall
	if err := dec.Decode(&wall); err != nil {
		t.Fatalf("BENCH_wall.json: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if raw, err = os.ReadFile("BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var workloads, metrics []string
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range bench.EndToEnd {
		metrics = append(metrics, m.Name)
	}
	if !slices.Equal(wall.Workloads, workloads) || !slices.Equal(wall.Metrics, metrics) {
		t.Fatalf("BENCH_wall.json names workloads %v and metrics %v; BENCHMARK.json %v and %v", wall.Workloads, wall.Metrics, workloads, metrics)
	}
	if wall.About == "" || len(wall.Records) == 0 {
		t.Fatal("BENCH_wall.json has no about text or no records")
	}

	for i, r := range wall.Records {
		if i > 0 && r.PR <= wall.Records[i-1].PR {
			t.Errorf("record %d: PR %d after PR %d; records go in PR order, one each", i, r.PR, wall.Records[i-1].PR)
		}
		if (r.Commit != nil && *r.Commit == "") || (r.Parent != nil && *r.Parent == "") {
			t.Errorf("PR %d: empty commit or parent", r.PR)
		}
		fromRun := r.Source == "ab.sh"
		if !fromRun && r.Source != "changelog" {
			t.Errorf("PR %d: source %q, want ab.sh or changelog", r.PR, r.Source)
		}
		if (r.GOMAXPROCS != nil && *r.GOMAXPROCS < 1) || (r.HostSpeed != nil && *r.HostSpeed <= 0) || (r.Pairs != nil && *r.Pairs < 1) {
			t.Errorf("PR %d: GOMAXPROCS, host speed or pairs out of range", r.PR)
		}
		if r.Claim != nil && (!slices.Contains(workloads, r.Claim.Workload) || !slices.Contains(metrics, r.Claim.Metric)) {
			t.Errorf("PR %d: claim on %+v, which the benchmark does not measure", r.PR, *r.Claim)
		}
		measured := r.Parent != nil && r.Pairs != nil // an A/B, not a first reading
		pairs := 0
		if measured {
			pairs = *r.Pairs
		}
		if len(r.Results) != len(workloads) {
			t.Errorf("PR %d: results for %d workloads, want %d", r.PR, len(r.Results), len(workloads))
		}
		for _, w := range workloads {
			if len(r.Results[w]) != len(metrics) {
				t.Errorf("PR %d, %s: %d metrics, want %d", r.PR, w, len(r.Results[w]), len(metrics))
			}
			for _, m := range metrics {
				v, ok := r.Results[w][m]
				if !ok {
					continue
				}
				for _, x := range []*float64{v.Parent, v.Change, v.Ratio} {
					if x != nil && !(*x > 0) {
						t.Errorf("PR %d, %s %s: non-positive value %v", r.PR, w, m, *x)
					}
				}
				if v.Parent != nil && v.Change != nil {
					if want := *v.Change / *v.Parent; v.Ratio == nil || math.Abs(*v.Ratio/want-1) > 0.01 {
						t.Errorf("PR %d, %s %s: the ratio is missing or not %.3f", r.PR, w, m, want)
					}
				}
				if v.Wins != nil && (!measured || *v.Wins < 0 || *v.Wins > *r.Pairs) {
					t.Errorf("PR %d, %s %s: %d wins in a record of %d pairs", r.PR, w, m, *v.Wins, pairs)
				}
				if !measured && (v.Parent != nil || v.Ratio != nil) {
					t.Errorf("PR %d, %s %s: a first reading has no parent side", r.PR, w, m)
				}
				if fromRun && (v.Parent == nil || v.Change == nil || v.Wins == nil) {
					t.Errorf("PR %d, %s %s: a record made from an ab.sh run carries both medians, the ratio and the wins", r.PR, w, m)
				}
			}
		}
		if fromRun && (!measured || r.GOMAXPROCS == nil || r.HostSpeed == nil) {
			t.Errorf("PR %d: a record made from an ab.sh run names its parent, pairs, GOMAXPROCS and host speed", r.PR)
		}
	}
}
