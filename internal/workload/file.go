package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"s3sched/internal/dfs"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
)

// Versioned JSONL workload files are the benchmark harness's unit of
// reproducibility: one file pins everything a differential run depends
// on — cluster shape, input data (by generator seed), job arrivals,
// cost-model calibration, fault schedule and cache budget — so two
// runs of the same file are comparable byte for byte, across
// schedulers, machines and commits (the OS4M position: scheduler
// comparisons are only meaningful under a shared, reproducible
// workload description).
//
// The format is JSON Lines: every non-blank, non-'#' line is one JSON
// object tagged with a "kind" discriminator. The first record must be
// the header; "file" records describe generated inputs; "job" records
// are arrivals. Unknown fields are rejected so a typo'd knob cannot
// silently revert to a default and skew a benchmark.
//
//	{"kind":"workload","version":2,"name":"canonical","nodes":4,...}
//	{"kind":"file","name":"corpus","content":"text","blocks":32,...}
//	{"kind":"job","id":1,"at":0,"file":"corpus","factory":"wordcount","param":"t"}

// FileVersion is the newest workload schema version this package
// accepts; it also still reads every older version. v2 added the
// header's cachePolicy field (block-cache eviction policy for cache-on
// cells); v3 added multi-file workloads (several "file" records) and
// job DAGs (the job record's dependsOn field — a job may scan another
// job's materialized output). v1/v2 files parse, price and digest
// exactly as before.
const FileVersion = 3

// Record kinds (the "kind" discriminator values).
const (
	KindHeader = "workload"
	KindFile   = "file"
	KindJob    = "job"
)

// Content kinds for generated input files.
const (
	// ContentText is the Zipf English-like corpus (wordcount family).
	ContentText = "text"
	// ContentLineitem is the TPC-H lineitem table (selection family).
	ContentLineitem = "lineitem"
	// ContentMeta is a metadata-only file: block placement without
	// bytes. Sim-only workloads use it; engine cells cannot run it.
	ContentMeta = "meta"
	// ContentDerived is the content of a materialized job output —
	// "key\tvalue\n" lines, the framing mapreduce.StoreResult writes.
	// It is never declared in a file record; jobs reach it by naming
	// DerivedFileName(dep) as their input.
	ContentDerived = "derived"
)

// DerivedFileName is the dfs name under which job id's reduce output
// materializes when downstream jobs depend on it. Stage outputs are
// first-class files: their consumers share circular scans exactly like
// jobs over declared inputs.
func DerivedFileName(id scheduler.JobID) string {
	return fmt.Sprintf("job-%d.out", id)
}

// ErrUnsupportedVersion reports a workload file written by a newer (or
// corrupted) schema. errors.Is-able so callers can distinguish "your
// tool is old" from "your file is broken".
var ErrUnsupportedVersion = errors.New("unsupported workload file version")

// LineError is the typed parse error: every malformed line is reported
// with its 1-based line number and the underlying cause.
type LineError struct {
	Line int
	Err  error
}

// Error implements error.
func (e *LineError) Error() string {
	return fmt.Sprintf("workload: file line %d: %v", e.Line, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *LineError) Unwrap() error { return e.Err }

// FileHeader is the workload file's first record: the environment
// every cell of the benchmark matrix shares.
type FileHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Cluster shape.
	Nodes        int `json:"nodes"`
	SlotsPerNode int `json:"slotsPerNode"`
	Replicas     int `json:"replicas"`
	// Fault model for fault-enabled runs: per-block-read failure
	// probability and the deterministic seed. Zero rate disables
	// injection.
	FaultRate float64 `json:"faultRate,omitempty"`
	FaultSeed int64   `json:"faultSeed,omitempty"`
	// Cache budget for cache-on cells, per node. CacheFrac is what a
	// warm read costs in the sim, as a fraction of the disk scan
	// (sim.Executor.EnableCachePolicy's second knob).
	CacheMBPerNode int     `json:"cacheMBPerNode,omitempty"`
	CacheFrac      float64 `json:"cacheFrac,omitempty"`
	// CachePolicy picks the block-cache eviction policy for cache-on
	// cells (dfs.Policies: lru, cursor; empty = lru). Requires
	// schema v2 — a v1 file carrying it is rejected rather than
	// silently repriced.
	CachePolicy string `json:"cachePolicy,omitempty"`
	// Cost pins the sim calibration the file's timings were produced
	// under; nil means the consumer's default (experiments.NormalModel).
	Cost *sim.CostModel `json:"cost,omitempty"`
}

// FileSpec describes one generated input file.
type FileSpec struct {
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Content string `json:"content"`
	// Blocks × BlockBytes is the file size; SegmentBlocks is the
	// scheduler's segment granularity (dfs.PlanSegments).
	Blocks        int   `json:"blocks"`
	BlockBytes    int64 `json:"blockBytes"`
	SegmentBlocks int   `json:"segmentBlocks"`
	// Seed drives the deterministic generator.
	Seed int64 `json:"seed,omitempty"`
	// Vocab selects a synthetic vocabulary of this many pseudo-words
	// for text content (0 = the built-in ~110-word list).
	Vocab int `json:"vocab,omitempty"`
}

// FileJob is one job arrival.
type FileJob struct {
	Kind string          `json:"kind"`
	ID   scheduler.JobID `json:"id"`
	// At is the submission time in virtual seconds.
	At      float64 `json:"at"`
	File    string  `json:"file"`
	Factory string  `json:"factory"`
	Param   string  `json:"param,omitempty"`
	// Weight/ReduceWeight scale the job's map/reduce cost (0 = 1.0).
	Weight       float64 `json:"weight,omitempty"`
	ReduceWeight float64 `json:"reduceWeight,omitempty"`
	Priority     int     `json:"priority,omitempty"`
	// NumReduce is the job's reduce partition count (0 = 1).
	NumReduce int `json:"numReduce,omitempty"`
	// EmitFactor multiplies heavy-wordcount map output (0 = 1).
	EmitFactor int `json:"emitFactor,omitempty"`
	// DependsOn lists jobs that must complete before this one becomes
	// ready (schema v3). A job whose File is DerivedFileName(dep) scans
	// dep's materialized reduce output; deps whose outputs the job does
	// not read are pure ordering constraints. The job's At is a lower
	// bound: it is admitted at max(At, last dep's materialization).
	DependsOn []scheduler.JobID `json:"dependsOn,omitempty"`
}

// File is one parsed workload.
type File struct {
	Header FileHeader
	Files  []FileSpec
	Jobs   []FileJob
}

// ParseFile reads a JSONL workload, rejecting malformed lines with
// *LineError and semantic violations via Validate. It never panics on
// malformed input.
func ParseFile(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	wf := &File{}
	lines := &lineIndex{}
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, &LineError{Line: line, Err: err}
		}
		decode := func(dst any) error {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(dst); err != nil {
				return &LineError{Line: line, Err: err}
			}
			if dec.More() {
				return &LineError{Line: line, Err: fmt.Errorf("trailing data after record")}
			}
			return nil
		}
		switch probe.Kind {
		case KindHeader:
			if sawHeader {
				return nil, &LineError{Line: line, Err: fmt.Errorf("duplicate %q record", KindHeader)}
			}
			if err := decode(&wf.Header); err != nil {
				return nil, err
			}
			sawHeader = true
		case KindFile:
			if !sawHeader {
				return nil, &LineError{Line: line, Err: fmt.Errorf("%q record before the %q header", KindFile, KindHeader)}
			}
			var fs FileSpec
			if err := decode(&fs); err != nil {
				return nil, err
			}
			wf.Files = append(wf.Files, fs)
			lines.files = append(lines.files, line)
		case KindJob:
			if !sawHeader {
				return nil, &LineError{Line: line, Err: fmt.Errorf("%q record before the %q header", KindJob, KindHeader)}
			}
			var j FileJob
			if err := decode(&j); err != nil {
				return nil, err
			}
			wf.Jobs = append(wf.Jobs, j)
			lines.jobs = append(lines.jobs, line)
		default:
			return nil, &LineError{Line: line, Err: fmt.Errorf("unknown record kind %q", probe.Kind)}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading file: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("workload: file has no %q header record", KindHeader)
	}
	if err := wf.validate(lines); err != nil {
		return nil, err
	}
	return wf, nil
}

// lineIndex maps parsed records back to their 1-based source lines so
// validation failures from ParseFile carry typed *LineError positions.
type lineIndex struct{ files, jobs []int }

// Validate checks the workload's semantic invariants.
func (wf *File) Validate() error { return wf.validate(&lineIndex{}) }

// validate is Validate with a record→line map: a record-level violation
// is wrapped in a *LineError pointing at the offending line, when known
// (how ParseFile reports dangling or cyclic dependsOn, duplicate ids,
// and the rest of the job/file checks).
func (wf *File) validate(lines *lineIndex) error {
	at := func(recs []int, i int, err error) error {
		if i < len(recs) {
			return &LineError{Line: recs[i], Err: err}
		}
		return err
	}
	h := &wf.Header
	if h.Kind != KindHeader {
		return fmt.Errorf("workload: header kind is %q, want %q", h.Kind, KindHeader)
	}
	if h.Version < 1 || h.Version > FileVersion {
		return fmt.Errorf("workload: %w: got %d, this build supports 1..%d", ErrUnsupportedVersion, h.Version, FileVersion)
	}
	if h.Name == "" {
		return fmt.Errorf("workload: header has no name")
	}
	if h.Nodes <= 0 || h.SlotsPerNode <= 0 {
		return fmt.Errorf("workload %q: cluster must have positive nodes (%d) and slots per node (%d)", h.Name, h.Nodes, h.SlotsPerNode)
	}
	if h.Replicas < 1 || h.Replicas > h.Nodes {
		return fmt.Errorf("workload %q: replicas %d out of range [1, %d nodes]", h.Name, h.Replicas, h.Nodes)
	}
	if h.FaultRate < 0 || h.FaultRate >= 1 {
		return fmt.Errorf("workload %q: fault rate %v out of range [0, 1)", h.Name, h.FaultRate)
	}
	if h.CacheMBPerNode < 0 {
		return fmt.Errorf("workload %q: negative cache budget %d MB/node", h.Name, h.CacheMBPerNode)
	}
	if h.CacheFrac < 0 || h.CacheFrac > 1 {
		return fmt.Errorf("workload %q: cache fraction %v out of range [0, 1]", h.Name, h.CacheFrac)
	}
	if h.CachePolicy != "" {
		if h.Version < 2 {
			return fmt.Errorf("workload %q: cachePolicy needs schema v2, header says v%d", h.Name, h.Version)
		}
		if !dfs.ValidPolicy(h.CachePolicy) {
			return fmt.Errorf("workload %q: unknown cache policy %q (want one of %v)", h.Name, h.CachePolicy, dfs.Policies())
		}
	}
	if h.Cost != nil {
		if err := h.Cost.Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", h.Name, err)
		}
	}
	// v1/v2 workloads carry a single input file — those schedulers'
	// constructors take one segment plan. v3 allows several (the
	// multi-plan constructors route jobs by file).
	if h.Version < 3 && len(wf.Files) != 1 {
		return fmt.Errorf("workload %q: v%d requires exactly one file record, got %d", h.Name, h.Version, len(wf.Files))
	}
	if len(wf.Files) == 0 {
		return fmt.Errorf("workload %q: no file records", h.Name)
	}
	fileIdx := make(map[string]int, len(wf.Files))
	for i := range wf.Files {
		f := &wf.Files[i]
		if f.Name == "" {
			return at(lines.files, i, fmt.Errorf("workload %q: file has no name", h.Name))
		}
		if _, dup := fileIdx[f.Name]; dup {
			return at(lines.files, i, fmt.Errorf("workload %q: duplicate file %q", h.Name, f.Name))
		}
		fileIdx[f.Name] = i
		switch f.Content {
		case ContentText, ContentLineitem, ContentMeta:
		default:
			return at(lines.files, i, fmt.Errorf("workload %q: file %q has unknown content %q (want %s|%s|%s)",
				h.Name, f.Name, f.Content, ContentText, ContentLineitem, ContentMeta))
		}
		if f.Blocks <= 0 || f.BlockBytes <= 0 {
			return at(lines.files, i, fmt.Errorf("workload %q: file %q needs positive blocks (%d) and block bytes (%d)", h.Name, f.Name, f.Blocks, f.BlockBytes))
		}
		if f.SegmentBlocks < 1 || f.SegmentBlocks > f.Blocks {
			return at(lines.files, i, fmt.Errorf("workload %q: file %q segment size %d out of range [1, %d blocks]", h.Name, f.Name, f.SegmentBlocks, f.Blocks))
		}
		if f.Vocab < 0 {
			return at(lines.files, i, fmt.Errorf("workload %q: file %q has negative vocabulary %d", h.Name, f.Name, f.Vocab))
		}
		if f.Vocab > 0 && f.Content != ContentText {
			return at(lines.files, i, fmt.Errorf("workload %q: file %q sets vocab for %s content (text only)", h.Name, f.Name, f.Content))
		}
	}
	if len(wf.Jobs) == 0 {
		return fmt.Errorf("workload %q: no job records", h.Name)
	}
	jobIdx := make(map[scheduler.JobID]int, len(wf.Jobs))
	hasDAG := false
	for i := range wf.Jobs {
		j := &wf.Jobs[i]
		if j.ID <= 0 {
			return at(lines.jobs, i, fmt.Errorf("workload %q: job %d has non-positive id %d", h.Name, i+1, j.ID))
		}
		if _, dup := jobIdx[j.ID]; dup {
			return at(lines.jobs, i, fmt.Errorf("workload %q: duplicate job id %d", h.Name, j.ID))
		}
		jobIdx[j.ID] = i
		if len(j.DependsOn) > 0 {
			hasDAG = true
		}
	}
	known := func(dep scheduler.JobID) bool { _, ok := jobIdx[dep]; return ok }
	for i := range wf.Jobs {
		j := &wf.Jobs[i]
		if j.At < 0 {
			return at(lines.jobs, i, fmt.Errorf("workload %q: job %d arrives at negative time %v", h.Name, j.ID, j.At))
		}
		if len(j.DependsOn) > 0 && h.Version < 3 {
			return at(lines.jobs, i, fmt.Errorf("workload %q: job %d: dependsOn needs schema v3, header says v%d", h.Name, j.ID, h.Version))
		}
		if err := runtime.CheckEdges(j.ID, j.DependsOn, known); err != nil {
			return at(lines.jobs, i, fmt.Errorf("workload %q: job %d %w", h.Name, j.ID, err))
		}
		// Resolve the input: a declared file, or the derived output of
		// one of this job's dependencies.
		rule := Job{Factory: j.Factory, Param: j.WireParam(), NumReduce: j.NumReduce, EmitFactor: j.EmitFactor, Weight: j.Weight, ReduceWeight: j.ReduceWeight}
		if fi, ok := fileIdx[j.File]; ok {
			rule.Input = wf.Files[fi].Content
		} else {
			producer, derived := wf.DerivedProducer(j.File)
			switch {
			case !derived:
				return at(lines.jobs, i, fmt.Errorf("workload %q: job %d reads unknown file %q", h.Name, j.ID, j.File))
			case !slices.Contains(j.DependsOn, producer):
				return at(lines.jobs, i, fmt.Errorf("workload %q: job %d reads derived file %q without depending on job %d", h.Name, j.ID, j.File, producer))
			}
			rule.Input, rule.Producer = ContentDerived, wf.Jobs[jobIdx[producer]].Factory
		}
		if err := rule.Check(); err != nil {
			return at(lines.jobs, i, fmt.Errorf("workload %q: job %d (file %q): %w", h.Name, j.ID, j.File, err))
		}
	}
	if hasDAG {
		// Derived-file geometry comes from actually executing the
		// producing stages, so a DAG workload cannot be metadata-only.
		for i := range wf.Files {
			if wf.Files[i].Content == ContentMeta {
				return at(lines.files, i, fmt.Errorf("workload %q: file %q is %s content; DAG workloads need real bytes to materialize stage outputs", h.Name, wf.Files[i].Name, ContentMeta))
			}
		}
		if _, err := runtime.Order(wf.Stages()); err != nil {
			err = fmt.Errorf("workload %q: %w", h.Name, err)
			var cycle *runtime.CycleError
			if errors.As(err, &cycle) {
				return at(lines.jobs, jobIdx[cycle.Job], err)
			}
			return err
		}
	}
	return nil
}

// DerivedProducer reports whether name is some job's derived output
// file and, if so, which job produces it.
func (wf *File) DerivedProducer(name string) (scheduler.JobID, bool) {
	for i := range wf.Jobs {
		if DerivedFileName(wf.Jobs[i].ID) == name {
			return wf.Jobs[i].ID, true
		}
	}
	return 0, false
}

// Stages returns the jobs as DAG stages, in file order: what the
// dependency graph orders and a runtime.LiveSource admits.
func (wf *File) Stages() []runtime.Stage {
	stages := make([]runtime.Stage, len(wf.Jobs))
	for i := range wf.Jobs {
		stages[i] = runtime.Stage{Job: wf.Jobs[i].Meta(), At: vclock.Time(wf.Jobs[i].At), DependsOn: wf.Jobs[i].DependsOn}
	}
	return stages
}

// Serialize writes the canonical JSONL form: header, file records,
// then job records, one compact JSON object per line, fields in schema
// order. Parse∘Serialize is the identity on parsed workloads, so the
// serialized bytes (and Digest) are a stable fingerprint.
func (wf *File) Serialize(w io.Writer) error {
	writeRec := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("workload: serializing record: %w", err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
		return nil
	}
	if err := writeRec(&wf.Header); err != nil {
		return err
	}
	for i := range wf.Files {
		if err := writeRec(&wf.Files[i]); err != nil {
			return err
		}
	}
	for i := range wf.Jobs {
		if err := writeRec(&wf.Jobs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Digest returns the sha256 hex digest of the canonical serialization
// — the workload identity reports carry, so a report can never be
// diffed against a baseline produced from a different workload.
func (wf *File) Digest() string {
	h := sha256.New()
	if err := wf.Serialize(h); err != nil {
		panic(fmt.Sprintf("workload: digesting: %v", err)) // in-memory write cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Meta returns the scheduler-visible description of the job.
func (j *FileJob) Meta() scheduler.JobMeta {
	name := j.Factory
	if j.Param != "" {
		name += "-" + j.Param
	}
	return scheduler.JobMeta{
		ID:           j.ID,
		Name:         fmt.Sprintf("%s-%d", name, j.ID),
		File:         j.File,
		Weight:       j.Weight,
		ReduceWeight: j.ReduceWeight,
		Priority:     j.Priority,
	}
}

// Entries returns the workload's arrivals in file order, without their
// dependencies, ready for runtime.RunTrace.
func (wf *File) Entries() []runtime.Arrival {
	out := make([]runtime.Arrival, len(wf.Jobs))
	for i := range wf.Jobs {
		out[i] = runtime.Arrival{Job: wf.Jobs[i].Meta(), At: vclock.Time(wf.Jobs[i].At)}
	}
	return out
}

// AddTo registers the generated file with the store.
func (f *FileSpec) AddTo(store *dfs.Store) (*dfs.File, error) {
	switch f.Content {
	case ContentText:
		if f.Vocab > 0 {
			return AddTextFileVocab(store, f.Name, f.Blocks, f.BlockBytes, f.Seed, f.Vocab)
		}
		return AddTextFile(store, f.Name, f.Blocks, f.BlockBytes, f.Seed)
	case ContentLineitem:
		return AddLineitemFile(store, f.Name, f.Blocks, f.BlockBytes, f.Seed)
	case ContentMeta:
		return store.AddMetaFile(f.Name, f.Blocks, f.BlockBytes)
	default:
		return nil, fmt.Errorf("workload: file %q has unknown content %q", f.Name, f.Content)
	}
}
