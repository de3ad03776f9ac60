package experiments

import (
	"testing"

	"s3sched/internal/trace"
	"s3sched/internal/workload"
)

// TestParseScheme holds every spelling either former CLI parser
// (s3sim's, s3replay's) accepted, and every rejection of both.
func TestParseScheme(t *testing.T) {
	env, err := buildEnv("input", 4, 1, 1, 8, 64<<20, NormalModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		name string // the built scheduler's name; "" = rejected
	}{
		{"s3", "s3"},
		{"s3-static", "s3-static"},
		{"s3-nocircular", "s3-nocircular"},
		{"fifo", "fifo"},
		{"fair", "fair"},
		{"mrshare:2:2", "mrshare"},
		{"mrshare:10", "mrshare"},
		{"mrs:4", "mrshare"},
		{"mrs2:6:4", "mrshare"},
		{"window:30:5", "mrshare-window"},
		{"window:0.5:1", "mrshare-window"},

		{"", ""},
		{"nope", ""},
		{"s3:1", ""},
		{" s3", ""},
		{"mrshare", ""},
		{"mrs", ""},
		{"mrshare:", ""},
		{"mrshare:x", ""},
		{"mrshare:0", ""},
		{"mrshare:2:", ""},
		{"mrshare:-1", ""},
		{"window", ""},
		{"window:30", ""},
		{"window:x:5", ""},
		{"window:30:x", ""},
		{"window:30:0", ""},
		{"window:0:5", ""},
		{"window:30:5:1", ""},
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
		log := trace.MustNew(8)
		sched, err := scheme.Make(env.Plan, log)
		if err != nil {
			t.Errorf("%q: Make: %v", tc.spec, err)
			continue
		}
		if scheme.Name != tc.name || sched.Name() != tc.name {
			t.Errorf("%q: spec name %q, scheduler name %q, want %q", tc.spec, scheme.Name, sched.Name(), tc.name)
		}
	}
}

// A labelled entry keeps the parsed scheduler and takes the row's name;
// the batch sizes reach the scheduler (a third job overflows 1+1).
func TestSchemesLabel(t *testing.T) {
	list := schemes("s3", "mrs2=mrshare:1:1")
	if list[0].Name != "s3" || list[1].Name != "mrs2" {
		t.Fatalf("names = %q, %q", list[0].Name, list[1].Name)
	}
	env, err := buildEnv("input", 4, 1, 1, 8, 64<<20, NormalModel())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := list[1].Make(env.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range workload.WordCountMetas(3, "input", 1, 1) {
		if err := sched.Submit(job, 0); (err != nil) != (i == 2) {
			t.Errorf("job %d of a 1+1 batch plan: err = %v", job.ID, err)
		}
	}
	if _, err := parseLabelled("x=nope"); err == nil {
		t.Error("a labelled unknown scheme should fail")
	}
}

func TestTwoJobExample(t *testing.T) {
	// §III's analytic values (Examples 1-3, second job at +20 s).
	for scheme, want := range map[string][2]float64{"fifo": {200, 140}, "mrshare": {120, 110}, "s3": {120, 100}} {
		tet, art, err := TwoJobExample(scheme, 20)
		if err != nil {
			t.Fatal(err)
		}
		if tet.Seconds() != want[0] || art.Seconds() != want[1] {
			t.Errorf("%s: TET/ART = %v/%v, want %v", scheme, tet, art, want)
		}
	}
	if _, _, err := TwoJobExample("nope", 20); err == nil {
		t.Error("unknown scheme should fail")
	}
}
