// Command s3compare runs one workload file through the scheduler
// comparison matrix — {s3, fifo, mrs1} × {sim, engine} × {pipeline
// on/off} × {cache on/off}, less the pipeline-on cells of mrs1, which
// never pipelines — and emits a single benchfmt JSON report with one
// comparable cell per combination (TET, ART, P95, rounds, cache hit
// ratio, fault retries, per-job completion times, output digest).
// -schedulers takes any scheme of the one grammar (s3bench sim's
// -sched), each optionally labelled: the default is s3,fifo,mrs1=mrshare
// and the label keys the cells.
//
// Every cell that produces real output carries a digest of it; the
// report refuses to encode if any two cells disagree, so a green run
// is also a cross-scheduler correctness check.
//
// Usage:
//
//	s3compare -workload bench/canonical.jsonl -o report.json
//	s3compare -workload w.jsonl -engines sim -md        # markdown table on stdout
//	s3compare -workload w.jsonl -schedulers s3,fifo -pipelines on
//	s3compare -workload bench/fig4-a.jsonl -schedulers s3,mrs2=mrshare:6:4,s3-static -md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode"

	"s3sched/internal/experiments"
	"s3sched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "s3compare:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("s3compare", flag.ContinueOnError)
	workloadPath := fs.String("workload", "", "workload file (JSONL, required)")
	out := fs.String("o", "", "write the JSON report to this file (default stdout)")
	md := fs.Bool("md", false, "print a markdown comparison table instead of JSON")
	schedulers := fs.String("schedulers", "", "comma list of [label=]scheme entries (default s3,fifo,mrs1=mrshare)")
	engines := fs.String("engines", "", "comma list of engines (default sim,engine)")
	pipelines := fs.String("pipelines", "", "pipeline cells: on|off|both (default both)")
	caches := fs.String("caches", "", "cache cells: on|off|both (default: off, plus on if the workload sets a budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workloadPath == "" {
		return fmt.Errorf("-workload is required")
	}

	f, err := os.Open(*workloadPath)
	if err != nil {
		return err
	}
	wf, err := workload.ParseFile(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", *workloadPath, err)
	}

	opts := experiments.CompareOptions{
		Schedulers: splitList(*schedulers),
		Engines:    splitList(*engines),
	}
	if opts.Pipelines, err = parseToggle("pipelines", *pipelines); err != nil {
		return err
	}
	if opts.Caches, err = parseToggle("caches", *caches); err != nil {
		return err
	}

	rep, err := experiments.RunCompare(wf, opts)
	if err != nil {
		return err
	}

	if *md {
		fmt.Fprint(stdout, rep.Markdown())
		if *out == "" {
			return nil
		}
	}
	w := stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	if err := rep.Encode(w); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %s (%d cells, workload %s)\n", *out, len(rep.Cells), rep.WorkloadDigest[:12])
	}
	return nil
}

// splitList splits a comma list, dropping blanks; nil when nothing is
// left, so the matrix runner applies its default.
func splitList(s string) []string {
	if list := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }); len(list) > 0 {
		return list
	}
	return nil
}

// toggles maps on|off|both to the cell subsets the matrix runner
// expects; "" defers to RunCompare's workload-aware default.
var toggles = map[string][]bool{"": nil, "on": {true}, "off": {false}, "both": {false, true}}

func parseToggle(name, s string) ([]bool, error) {
	if t, ok := toggles[s]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("-%s: want on|off|both, got %q", name, s)
}
