package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenLog builds a small fixed run — two rounds, two jobs, a requeue
// — exercising every export surface deterministically.
func goldenLog() *Log {
	l := MustNew(64)
	run := l.StartSpan(0, "run", SpanOpts{Cat: "driver", Job: -1, Segment: -1,
		Args: []Arg{{"scheme", "s3"}}})

	l.Addf(0, JobSubmitted, 0, -1, "wordcount weight=1")
	l.Addf(0, JobSubmitted, 1, -1, "wordcount weight=2")

	r0 := l.StartSpan(0, "round", SpanOpts{Cat: "driver", Parent: run, Job: -1, Segment: 0,
		Args: []Arg{{"seq", "0"}, {"batch", "2"}}})
	l.Addf(0, RoundLaunched, -1, 0, "s3 merged sub-job of 2 job(s)")
	scan0 := l.StartSpan(0, "scan-stage", SpanOpts{Cat: "driver", Parent: r0, Job: -1, Segment: 0})
	l.EndSpan(scan0, 6.5)
	red0 := l.StartSpan(6.5, "reduce-stage", SpanOpts{Cat: "driver", Parent: r0, Job: -1, Segment: 0})
	l.EndSpan(red0, 10)
	for job := 0; job < 2; job++ {
		sj := l.StartSpan(0, "subjob", SpanOpts{Cat: "driver", Parent: r0, Job: job, Segment: 0})
		l.EndSpan(sj, 10)
	}
	l.Addf(10, RoundFinished, -1, 0, "")
	l.EndSpan(r0, 10)

	r1 := l.StartSpan(10, "round", SpanOpts{Cat: "driver", Parent: run, Job: -1, Segment: 1,
		Args: []Arg{{"seq", "1"}, {"batch", "1"}}})
	l.Addf(10, RoundLaunched, -1, 1, "s3 merged sub-job of 1 job(s)")
	l.Addf(14, SubJobRequeued, 1, 1, "round lost")
	l.Addf(30, RoundFinished, -1, 1, "")
	l.EndSpan(r1, 30, Arg{"requeued", "true"})

	l.Addf(30, JobCompleted, 0, -1, "")
	l.EndSpan(run, 30, Arg{"rounds", "2"})
	return l
}

func TestGolden(t *testing.T) {
	log := goldenLog()
	cases := []struct {
		name   string
		render func(l *Log) ([]byte, error)
	}{
		{"events.json", func(l *Log) ([]byte, error) {
			var buf bytes.Buffer
			err := l.WriteJSON(&buf)
			return buf.Bytes(), err
		}},
		{"chrome_trace.json", func(l *Log) ([]byte, error) {
			var buf bytes.Buffer
			err := l.WriteChromeTrace(&buf)
			return buf.Bytes(), err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.render(log)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/trace -update` to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s\nRe-run with -update if the change is intended.",
					tc.name, got, want)
			}
		})
	}
}

// TestGoldenStable renders twice and insists on byte identity — the
// exporters must be deterministic functions of the log, or the golden
// files (and the byte-identical-snapshot acceptance bar) are meaningless.
func TestGoldenStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenLog().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenLog().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteChromeTrace is not deterministic")
	}
}
