// Package benchfmt is the interchange format of the differential
// benchmark harness: one Report per s3compare run, one Cell per
// {scheduler} × {sim|engine} × {cache} configuration, all
// measured over the same workload file. The encoding is canonical
// (sorted cells, stable JSON field order, trailing newline), so a
// deterministic run produces byte-identical report files — which is
// itself one of the properties the harness's regression tests assert.
//
// The format is consumed by cmd/s3report, which diffs two report sets,
// checks the cross-cell output-digest invariant, renders a markdown
// comparison table, and gates CI on TET/ART regressions beyond a
// threshold.
package benchfmt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Version is the report schema version. Version 1 keyed cells by a
// pipeline toggle as well; such reports no longer decode.
const Version = 2

// Engine kinds a cell can run on.
const (
	EngineSim  = "sim"    // cost-model simulator timings
	EngineReal = "engine" // real in-process MapReduce, sim-priced timings
)

// CellKey identifies one configuration of the benchmark matrix.
type CellKey struct {
	// Scheduler is the scheme name ("s3", "fifo", "mrs1", ...).
	Scheduler string `json:"scheduler"`
	// Engine is EngineSim or EngineReal.
	Engine string `json:"engine"`
	// Cache enables the block cache at the workload's budget.
	Cache bool `json:"cache"`
}

// String renders the key in the compact form used in tables and flags:
// "s3/sim/cache", with "-" for a disabled cache.
func (k CellKey) String() string {
	cache := "-"
	if k.Cache {
		cache = "cache"
	}
	return fmt.Sprintf("%s/%s/%s", k.Scheduler, k.Engine, cache)
}

// less orders keys scheduler, engine, cache — the canonical
// cell order within a report.
func (k CellKey) less(o CellKey) bool {
	if k.Scheduler != o.Scheduler {
		return k.Scheduler < o.Scheduler
	}
	if k.Engine != o.Engine {
		return k.Engine < o.Engine
	}
	if k.Cache != o.Cache {
		return !k.Cache
	}
	return false
}

// JobTiming is one job's lifecycle in virtual seconds.
type JobTiming struct {
	ID          int     `json:"id"`
	SubmittedAt float64 `json:"submittedAt"`
	StartedAt   float64 `json:"startedAt"`
	CompletedAt float64 `json:"completedAt"`
	Response    float64 `json:"response"`
}

// Cell is one configuration's measured outcome.
type Cell struct {
	Key CellKey `json:"key"`
	// TET/ART/P95 are the paper's headline metrics, virtual seconds.
	TET float64 `json:"tet"`
	ART float64 `json:"art"`
	P95 float64 `json:"p95"`
	// Rounds is the number of scan waves the run took.
	Rounds int `json:"rounds"`
	// CacheHitRatio is hits/(hits+misses) over the run, 0 with cache
	// off.
	CacheHitRatio float64 `json:"cacheHitRatio"`
	// FaultRetries counts re-executed block attempts.
	FaultRetries int `json:"faultRetries"`
	// OutputDigest fingerprints the run's job outputs (sha256 over
	// per-job sorted key/value records). Every cell of one workload
	// must carry the same digest — schedulers may reorder work, never
	// change results. Empty when outputs were unavailable (meta-content
	// workloads).
	OutputDigest string `json:"outputDigest,omitempty"`
	// Jobs is the per-job completion table, sorted by id.
	Jobs []JobTiming `json:"jobs"`
}

// Report is one s3compare run over one workload file.
type Report struct {
	Version int `json:"version"`
	// Workload is the workload's header name; WorkloadDigest is the
	// sha256 of its canonical serialization. Diffing reports from
	// different workloads is meaningless, so s3report refuses it.
	Workload       string `json:"workload"`
	WorkloadDigest string `json:"workloadDigest"`
	Cells          []Cell `json:"cells"`
}

// Sort orders cells canonically.
func (r *Report) Sort() {
	sort.Slice(r.Cells, func(i, j int) bool { return r.Cells[i].Key.less(r.Cells[j].Key) })
}

// Cell returns the cell with the given key, nil if absent.
func (r *Report) Cell(k CellKey) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Key == k {
			return &r.Cells[i]
		}
	}
	return nil
}

// Encode writes the canonical form: sorted cells, two-space indent,
// trailing newline.
func (r *Report) Encode(w io.Writer) error {
	r.Sort()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: encoding report: %w", err)
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Decode reads a report, rejecting version mismatches, unknown fields
// and repeated cell keys (Cell would hide every copy but the first). The
// version is checked first, so an older report is refused for its
// version rather than for a field its schema had.
func Decode(rd io.Reader) (*Report, error) {
	var raw json.RawMessage
	if err := json.NewDecoder(rd).Decode(&raw); err != nil {
		return nil, fmt.Errorf("benchfmt: decoding report: %w", err)
	}
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("benchfmt: decoding report: %w", err)
	}
	if v.Version != Version {
		return nil, fmt.Errorf("benchfmt: report version %d, this build supports %d", v.Version, Version)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("benchfmt: decoding report: %w", err)
	}
	seen := make(map[CellKey]bool, len(r.Cells))
	for i := range r.Cells {
		k := r.Cells[i].Key
		if seen[k] {
			return nil, fmt.Errorf("benchfmt: report has cell %s twice", k)
		}
		seen[k] = true
	}
	return &r, nil
}

// DigestConsensus checks the cross-cell output invariant: every cell
// that carries an output digest carries the *same* one. It returns the
// consensus digest ("" when no cell carries one).
func (r *Report) DigestConsensus() (string, error) {
	digest := ""
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.OutputDigest == "" {
			continue
		}
		if digest == "" {
			digest = c.OutputDigest
			continue
		}
		if c.OutputDigest != digest {
			return "", fmt.Errorf("benchfmt: cell %s output digest %.12s disagrees with %.12s — a scheduler changed job outputs",
				c.Key, c.OutputDigest, digest)
		}
	}
	return digest, nil
}

// Markdown renders the report as a comparison table.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Benchmark report: %s\n\n", r.Workload)
	fmt.Fprintf(&b, "Workload digest `%.12s`, %d cells.\n\n", r.WorkloadDigest, len(r.Cells))
	b.WriteString("| cell | TET (s) | ART (s) | P95 (s) | rounds | cache hits | retries | output |\n")
	b.WriteString("|------|--------:|--------:|--------:|-------:|-----------:|--------:|--------|\n")
	for i := range r.Cells {
		c := &r.Cells[i]
		digest := "—"
		if c.OutputDigest != "" {
			digest = fmt.Sprintf("`%.12s`", c.OutputDigest)
		}
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.2f | %d | %.1f%% | %d | %s |\n",
			c.Key, c.TET, c.ART, c.P95, c.Rounds, 100*c.CacheHitRatio, c.FaultRetries, digest)
	}
	return b.String()
}

// DiffRow is one cell's baseline-vs-current comparison.
type DiffRow struct {
	Key CellKey `json:"key"`
	// BaseTET/CurTET and BaseART/CurART are the two runs' metrics;
	// DTET/DART are the relative deltas ((cur-base)/base), positive
	// when the current run is slower.
	BaseTET float64 `json:"baseTET"`
	CurTET  float64 `json:"curTET"`
	DTET    float64 `json:"dTET"`
	BaseART float64 `json:"baseART"`
	CurART  float64 `json:"curART"`
	DART    float64 `json:"dART"`
	// Regressed marks rows whose TET or ART delta exceeds the diff
	// threshold.
	Regressed bool `json:"regressed"`
}

// Diff is the outcome of comparing a current report against a
// baseline.
type Diff struct {
	// Threshold is the relative regression gate the diff was taken at.
	Threshold float64   `json:"threshold"`
	Rows      []DiffRow `json:"rows"`
	// MissingInCurrent/MissingInBaseline list cells only one side has
	// (rendered as informational; a sim-only CI run legitimately
	// compares a subset of a full-matrix baseline).
	MissingInCurrent  []CellKey `json:"missingInCurrent,omitempty"`
	MissingInBaseline []CellKey `json:"missingInBaseline,omitempty"`
}

// Regressions returns the rows that exceeded the threshold.
func (d *Diff) Regressions() []DiffRow {
	var out []DiffRow
	for _, row := range d.Rows {
		if row.Regressed {
			out = append(out, row)
		}
	}
	return out
}

// Compare diffs current against baseline over the cells both carry,
// flagging any TET or ART that regressed by more than threshold
// (relative; 0.10 = 10% slower). It fails outright when the reports
// measured different workloads or when either report violates the
// output-digest consensus.
func Compare(baseline, current *Report, threshold float64) (*Diff, error) {
	if threshold < 0 {
		return nil, fmt.Errorf("benchfmt: negative threshold %v", threshold)
	}
	if baseline.WorkloadDigest != current.WorkloadDigest {
		return nil, fmt.Errorf("benchfmt: baseline measured workload %s (%.12s), current %s (%.12s) — refusing to diff different workloads",
			baseline.Workload, baseline.WorkloadDigest, current.Workload, current.WorkloadDigest)
	}
	if _, err := baseline.DigestConsensus(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if _, err := current.DigestConsensus(); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	baseline.Sort()
	current.Sort()
	d := &Diff{Threshold: threshold}
	for i := range current.Cells {
		cur := &current.Cells[i]
		base := baseline.Cell(cur.Key)
		if base == nil {
			d.MissingInBaseline = append(d.MissingInBaseline, cur.Key)
			continue
		}
		row := DiffRow{
			Key:     cur.Key,
			BaseTET: base.TET, CurTET: cur.TET, DTET: relDelta(base.TET, cur.TET),
			BaseART: base.ART, CurART: cur.ART, DART: relDelta(base.ART, cur.ART),
		}
		row.Regressed = row.DTET > threshold || row.DART > threshold
		d.Rows = append(d.Rows, row)
	}
	for i := range baseline.Cells {
		if current.Cell(baseline.Cells[i].Key) == nil {
			d.MissingInCurrent = append(d.MissingInCurrent, baseline.Cells[i].Key)
		}
	}
	if len(d.Rows) == 0 {
		return nil, fmt.Errorf("benchfmt: reports share no cells — nothing to compare")
	}
	return d, nil
}

// relDelta returns (cur-base)/base, treating a zero baseline as "any
// increase is infinite regression, no change is none".
func relDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 1e9
	}
	return (cur - base) / base
}

// Markdown renders the diff as a comparison table.
func (d *Diff) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Benchmark diff (gate: ±%.0f%%)\n\n", 100*d.Threshold)
	b.WriteString("| cell | TET base → cur | ΔTET | ART base → cur | ΔART | verdict |\n")
	b.WriteString("|------|---------------:|-----:|---------------:|-----:|---------|\n")
	for _, row := range d.Rows {
		verdict := "ok"
		if row.Regressed {
			verdict = "**REGRESSED**"
		}
		fmt.Fprintf(&b, "| %s | %.2f → %.2f | %+.1f%% | %.2f → %.2f | %+.1f%% | %s |\n",
			row.Key, row.BaseTET, row.CurTET, 100*row.DTET, row.BaseART, row.CurART, 100*row.DART, verdict)
	}
	writeMissing := func(label string, keys []CellKey) {
		if len(keys) == 0 {
			return
		}
		names := make([]string, len(keys))
		for i, k := range keys {
			names[i] = k.String()
		}
		fmt.Fprintf(&b, "\nNot compared (%s): %s.\n", label, strings.Join(names, ", "))
	}
	writeMissing("missing in current", d.MissingInCurrent)
	writeMissing("missing in baseline", d.MissingInBaseline)
	return b.String()
}
