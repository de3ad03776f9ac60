package experiments

import (
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

// TestParseScheme holds every spelling either former CLI parser
// (s3sim's, s3replay's) accepted, and every rejection of both.
func TestParseScheme(t *testing.T) {
	input, other := metaPlan(t, "input"), metaPlan(t, "other")
	for _, tc := range []struct {
		spec  string
		name  string // the spec's name; "" = rejected
		sched string // the built scheduler's name
		multi bool   // schedules a plan set of two files
	}{
		{"s3", "s3", "s3-multifile", true},
		{"s3-static", "s3-static", "s3-static", false},
		{"s3-nocircular", "s3-nocircular", "s3-nocircular", false},
		{"fifo", "fifo", "fifo", true},
		{"fair", "fair", "fair", false},
		{"mrshare", "mrshare", "mrshare-multifile", true},
		{"mrshare:2:2", "mrshare", "mrshare-multifile", true},
		{"mrshare:10", "mrshare", "mrshare-multifile", true},
		{"mrs:4", "mrshare", "mrshare-multifile", true},
		{"mrs2:6:4", "mrshare", "mrshare-multifile", true},
		{"window:30:5", "mrshare-window", "mrshare-window", false},
		{"window:0.5:1", "mrshare-window", "mrshare-window", false},

		{spec: ""},
		{spec: "nope"},
		{spec: "s3:1"},
		{spec: " s3"},
		{spec: "mrs"},
		{spec: "mrshare:"},
		{spec: "mrshare:x"},
		{spec: "mrshare:0"},
		{spec: "mrshare:2:"},
		{spec: "mrshare:-1"},
		{spec: "window"},
		{spec: "window:30"},
		{spec: "window:x:5"},
		{spec: "window:30:x"},
		{spec: "window:30:0"},
		{spec: "window:0:5"},
		{spec: "window:30:5:1"},
	} {
		scheme, err := ParseScheme(tc.spec)
		if tc.name == "" {
			if err == nil {
				t.Errorf("ParseScheme(%q) = %q, want an error", tc.spec, scheme.Name)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", tc.spec, err)
			continue
		}
		sched, err := scheme.Make([]*dfs.SegmentPlan{input}, nil)
		if err != nil {
			t.Errorf("%q: Make: %v", tc.spec, err)
			continue
		}
		if scheme.Name != tc.name || sched.Name() != tc.sched {
			t.Errorf("%q: spec name %q, scheduler name %q, want %q and %q", tc.spec, scheme.Name, sched.Name(), tc.name, tc.sched)
		}
		// A scheme with no multi-file form stays bare and says so.
		if _, err := scheme.Make([]*dfs.SegmentPlan{input, other}, nil); (err == nil) != tc.multi {
			t.Errorf("%q over two files: err = %v, want multi-file form = %v", tc.spec, err, tc.multi)
		}
		if _, err := scheme.Make(nil, nil); err == nil {
			t.Errorf("%q over no plan: want an error", tc.spec)
		}
	}
}

// A labelled entry keeps the parsed scheduler and takes the row's name;
// the batch sizes reach the scheduler (a third job overflows 1+1), and
// bare mrshare batches exactly the file's readers (a third overflows 2).
func TestSchemesLabel(t *testing.T) {
	list := schemes("s3", "mrs2=mrshare:1:1", "mrs1=mrshare")
	if list[0].Name != "s3" || list[1].Name != "mrs2" || list[2].Name != "mrs1" {
		t.Fatalf("names = %q, %q, %q", list[0].Name, list[1].Name, list[2].Name)
	}
	input := metaPlan(t, "input")
	for _, scheme := range list[1:] {
		sched, err := scheme.Make([]*dfs.SegmentPlan{input}, map[string]int{"input": 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 3 {
			job := scheduler.JobMeta{ID: scheduler.JobID(i + 1), File: "input"}
			if err := sched.Submit(job, 0); (err != nil) != (i == 2) {
				t.Errorf("%s: job %d of a 1+1 batch plan: err = %v", scheme.Name, job.ID, err)
			}
		}
	}
	for _, bad := range []string{"x=nope", "=s3"} {
		if _, err := parseLabelled(bad); err == nil {
			t.Errorf("parseLabelled(%q) should fail", bad)
		}
	}
}

// metaPlan is an 8-block metadata-only file of the given name on a
// 4-node store, cut one block per node.
func metaPlan(t *testing.T, name string) *dfs.SegmentPlan {
	t.Helper()
	f, err := dfs.MustStore(4, 1).AddMetaFile(name, 8, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dfs.PlanSegments(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
