package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"s3sched/internal/mapreduce"
)

// The job catalog declares each job factory once: workload files name
// its entries, every worker's registry (remote.NewStandardRegistry)
// builds them, and the workload validator, POST /jobs and journal
// recovery admit a job through one rule, Job.Check.
const (
	FactoryWordCount      = "wordcount"       // param = prefix to count
	FactoryHeavyWordCount = "heavy-wordcount" // param = <emitFactor>:<prefix>: each match emitted emitFactor (>= 1) times, no combiner to hide it
	FactorySelection      = "selection"       // param = max l_quantity (integer); map-only
	FactoryAggregation    = "aggregation"     // param unused (Q1-style group-by sum)
	FactoryTopK           = "topk"            // param = k (>= 1); the k largest counts of a producer's output; no combiner, the selection is global
)

// Factory is one catalog entry. Inputs are the contents its mapper
// parses, ContentDerived for a producer's output. Counts: its output is
// key\tcount lines a topk can rank, not rows. ranks: it ranks the counts
// it scans. emits: a workload job's emitFactor rides in front of its
// param. Build makes a job's mapper, reducer and combiner (nil: none)
// from its param.
type Factory struct {
	Inputs               []string
	Counts, ranks, emits bool
	Build                func(param string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error)
}

// Catalog is every factory the workers run, by name.
var Catalog = map[string]*Factory{
	FactoryWordCount: {Inputs: []string{ContentText, ContentDerived}, Counts: true, Build: func(param string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
		return PatternCountMapper{Prefix: param}, SumReducer{}, SumReducer{}, nil
	}},
	FactoryHeavyWordCount: {Inputs: []string{ContentText, ContentDerived}, Counts: true, emits: true, Build: func(param string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
		factor, prefix, ok := strings.Cut(param, ":")
		if n, err := strconv.Atoi(factor); ok && err == nil && n >= 1 {
			return PatternCountMapper{Prefix: prefix, EmitFactor: n}, SumReducer{}, nil, nil
		}
		return nil, nil, nil, fmt.Errorf("heavy-wordcount param must be <emitFactor>:<prefix> with an integer factor of at least 1, got %q", param)
	}},
	FactorySelection: {Inputs: []string{ContentLineitem}, Build: func(param string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
		max, err := strconv.Atoi(param)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("selection param must be an integer quantity, got %q", param)
		}
		return SelectionMapper{MaxQuantity: max}, nil, nil, nil
	}},
	FactoryAggregation: {Inputs: []string{ContentLineitem}, Counts: true, Build: func(string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
		return AggregationMapper{}, SumReducer{}, SumReducer{}, nil
	}},
	FactoryTopK: {Inputs: []string{ContentDerived}, Counts: true, ranks: true, Build: func(param string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error) {
		if k, err := strconv.Atoi(param); err == nil && k >= 1 {
			return TopKMapper{}, TopKReducer{K: k}, nil, nil
		}
		return nil, nil, nil, fmt.Errorf("topk param must be a positive integer k, got %q", param)
	}},
}

// Scans reports whether f's mapper parses content. A metadata-only file
// stands in for any declared content.
func (f *Factory) Scans(content string) bool {
	return slices.ContainsFunc(f.Inputs, func(in string) bool { return in == content || content == ContentMeta && in != ContentDerived })
}

// MaxNumReduce bounds a job's reduce partition count, which sizes
// allocations on the master and in every worker's map tasks.
const MaxNumReduce = 1024

// Job is a job as the rule sees it, from whichever front end. Param is
// what the workers build it from (FileJob.WireParam for a workload job,
// whose EmitFactor is then in it). Input is the content it scans,
// ContentDerived for a producer's output; Producer is then that
// producer's factory, "" if not known.
type Job struct {
	Factory, Param        string
	NumReduce, EmitFactor int
	Weight, ReduceWeight  float64
	Input, Producer       string
}

// RangeError refuses a job's number outside [0, Max].
type RangeError struct {
	Field      string
	Value, Max float64
}

// Error implements error.
func (e *RangeError) Error() string {
	return fmt.Sprintf("%s %.15g out of range [0, %.15g]", e.Field, e.Value, e.Max)
}

// Check is the one job rule: it returns why the job cannot run, or nil.
func (j Job) Check() error {
	for _, n := range []RangeError{{"weight", j.Weight, math.Inf(1)}, {"reduceWeight", j.ReduceWeight, math.Inf(1)},
		{"emitFactor", float64(j.EmitFactor), math.Inf(1)}, {"numReduce", float64(j.NumReduce), MaxNumReduce}} {
		if n.Value < 0 || n.Value > n.Max {
			err := n
			return &err
		}
	}
	f, ok := Catalog[j.Factory]
	if !ok {
		return fmt.Errorf("unknown factory %q", j.Factory)
	}
	if _, _, _, err := f.Build(j.Param); err != nil {
		return err
	}
	switch {
	case j.EmitFactor > 0 && !f.emits:
		return fmt.Errorf("%s takes no emitFactor", j.Factory)
	case !f.Scans(j.Input) && !f.Scans(ContentMeta): // it scans derived output only
		return fmt.Errorf("%s scans a dependency's derived output (dependsOn), not %s content", j.Factory, j.Input)
	case !f.Scans(j.Input):
		return fmt.Errorf("%s needs %s content, not %s content", j.Factory, strings.Join(f.Inputs, " or "), j.Input)
	case f.ranks && j.Input == ContentDerived:
		if p, ok := Catalog[j.Producer]; ok && !p.Counts {
			return fmt.Errorf("%s ranks counts, and a %s's values are rows, not counts", j.Factory, j.Producer)
		}
	}
	return nil
}

// WireParam is the param the workers build j from: an emitting
// factory's emit factor (at least 1) rides in front of its prefix.
func (j *FileJob) WireParam() string {
	if f, ok := Catalog[j.Factory]; ok && f.emits {
		return fmt.Sprintf("%d:%s", max(j.EmitFactor, 1), j.Param)
	}
	return j.Param
}
