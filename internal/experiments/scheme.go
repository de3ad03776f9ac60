package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// SchemeSpec names a scheme and builds a fresh scheduler over a plan
// set (one plan per input file; one plan is the paper's case). readers
// counts the jobs that will read each file (bare mrshare batches them
// all).
type SchemeSpec struct {
	Name string
	Make func(plans []*dfs.SegmentPlan, readers map[string]int) (scheduler.Scheduler, error)
}

// bare adapts a scheme with no multi-file form: it schedules exactly
// one plan and rejects more.
func bare(name string, mk func(*dfs.SegmentPlan) (scheduler.Scheduler, error)) SchemeSpec {
	return SchemeSpec{Name: name, Make: func(plans []*dfs.SegmentPlan, _ map[string]int) (scheduler.Scheduler, error) {
		if len(plans) != 1 {
			return nil, fmt.Errorf("scheme %s schedules one input file, got %d", name, len(plans))
		}
		return mk(plans[0])
	}}
}

// bareSchemes are the argument-less schemes that stay single-file
// studies, keyed by the name their scheduler reports.
var bareSchemes = map[string]func(*dfs.SegmentPlan) scheduler.Scheduler{
	"s3-static":     func(p *dfs.SegmentPlan) scheduler.Scheduler { return core.NewStatic(p, nil) },
	"s3-nocircular": func(p *dfs.SegmentPlan) scheduler.Scheduler { return core.NewNoCircular(p, nil) },
	"fair":          func(p *dfs.SegmentPlan) scheduler.Scheduler { return scheduler.NewFair(p, nil) },
}

// ParseScheme is the one scheme grammar, of every study and s3compare alike:
//
//	s3 | s3-static | s3-nocircular | fifo | fair
//	mrshare                   one batch of each file's readers
//	mrshare:n[:n…]            predetermined batches of n jobs (any head
//	                          spelled mrs… reads the same: mrs:4)
//	window:seconds:maxbatch   time-window MRShare
//
// The spec's Name labels the scheme's rows; the built scheduler reports
// its own (s3 builds "s3-multifile", the name its journals carry).
func ParseScheme(spec string) (SchemeSpec, error) {
	head, rest, hasArgs := strings.Cut(spec, ":")
	switch {
	case spec == "s3": // with fifo and mrshare, a plan-set scheduler: what the cluster and the matrix run
		return SchemeSpec{Name: spec, Make: func(plans []*dfs.SegmentPlan, _ map[string]int) (scheduler.Scheduler, error) {
			return core.NewMultiFile(plans, nil)
		}}, nil
	case spec == "fifo":
		return SchemeSpec{Name: spec, Make: func(plans []*dfs.SegmentPlan, _ map[string]int) (scheduler.Scheduler, error) {
			return core.NewFIFO(plans, nil)
		}}, nil
	case spec == "mrshare": // MRShare's strongest configuration for a known job set; a file nobody reads still needs a valid batch plan
		return SchemeSpec{Name: spec, Make: func(plans []*dfs.SegmentPlan, readers map[string]int) (scheduler.Scheduler, error) {
			return core.NewMultiMRShare(plans, func(file string) []int { return []int{max(readers[file], 1)} }, nil)
		}}, nil
	case !hasArgs:
		if mk, ok := bareSchemes[spec]; ok {
			return bare(spec, func(p *dfs.SegmentPlan) (scheduler.Scheduler, error) { return mk(p), nil }), nil
		}
	case head == "window":
		secs, maxBatch, ok := strings.Cut(rest, ":")
		window, err := strconv.ParseFloat(secs, 64)
		n, nerr := strconv.Atoi(maxBatch)
		if !ok || err != nil || nerr != nil || window <= 0 || n < 1 {
			return SchemeSpec{}, fmt.Errorf("bad scheme %q: want window:seconds:maxbatch, both positive", spec)
		}
		return bare("mrshare-window", func(p *dfs.SegmentPlan) (scheduler.Scheduler, error) {
			return core.NewWindowMRShare(p, vclock.Duration(window), n, nil)
		}), nil
	case strings.HasPrefix(head, "mrs"):
		var sizes []int
		for _, arg := range strings.Split(rest, ":") {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return SchemeSpec{}, fmt.Errorf("bad scheme %q: batch size %q is not a positive integer (want e.g. mrshare:6:4)", spec, arg)
			}
			sizes = append(sizes, n)
		}
		return SchemeSpec{Name: "mrshare", Make: func(plans []*dfs.SegmentPlan, _ map[string]int) (scheduler.Scheduler, error) {
			return core.NewMultiMRShare(plans, func(string) []int { return sizes }, nil) // every file batches alike
		}}, nil
	}
	return SchemeSpec{}, fmt.Errorf("unknown scheme %q (want s3 | s3-static | s3-nocircular | fifo | fair | mrshare[:n…] | window:seconds:maxbatch)", spec)
}

// parseLabelled is ParseScheme for tables and cells that carry their
// own names: "label=spec" renames the parsed scheme.
func parseLabelled(s string) (SchemeSpec, error) {
	label, spec, ok := strings.Cut(s, "=")
	if !ok {
		return ParseScheme(s)
	}
	if label == "" {
		return SchemeSpec{}, fmt.Errorf("scheme %q has an empty label", s)
	}
	scheme, err := ParseScheme(spec)
	scheme.Name = label
	return scheme, err
}

// schemes parses a study's fixed scheme list; a bad entry is a
// programming error.
func schemes(specs ...string) []SchemeSpec {
	out := make([]SchemeSpec, len(specs))
	for i, s := range specs {
		var err error
		if out[i], err = parseLabelled(s); err != nil {
			panic(err)
		}
	}
	return out
}
