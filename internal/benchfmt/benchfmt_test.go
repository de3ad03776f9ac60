package benchfmt

import (
	"bytes"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		Version:        Version,
		Workload:       "tiny",
		WorkloadDigest: "aabbccddeeff00112233445566778899aabbccddeeff00112233445566778899",
		Cells: []Cell{
			{
				Key: CellKey{Scheduler: "fifo", Engine: EngineSim},
				TET: 200, ART: 120, P95: 190, Rounds: 12,
				OutputDigest: "d1d1d1d1d1d1",
				Jobs:         []JobTiming{{ID: 1, CompletedAt: 200, Response: 200}},
			},
			{
				Key: CellKey{Scheduler: "s3", Engine: EngineSim, Pipeline: true, Cache: true},
				TET: 100, ART: 60, P95: 95, Rounds: 8, CacheHitRatio: 0.685,
				OutputDigest: "d1d1d1d1d1d1",
				Jobs:         []JobTiming{{ID: 1, CompletedAt: 100, Response: 100}},
			},
		},
	}
}

func TestEncodeDecodeCanonical(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Encode sorts: fifo sorts after s3? No — canonical order is by
	// scheduler name, so "fifo" precedes "s3".
	if r.Cells[0].Key.Scheduler != "fifo" {
		t.Fatalf("cells not sorted: %v first", r.Cells[0].Key)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("encode∘decode not canonical:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestDecodeRejects(t *testing.T) {
	const cell = `{"key":{"scheduler":"s3","engine":"sim","pipeline":false,"cache":false},"tet":1,"art":1,"p95":1,"rounds":1,"cacheHitRatio":0,"faultRetries":0,"jobs":[]}`
	for what, src := range map[string]string{
		"wrong version":       `{"version":99,"workload":"w","workloadDigest":"d","cells":[]}`,
		"unknown field":       `{"version":1,"workload":"w","workloadDigest":"d","cells":[],"zorp":1}`,
		"non-JSON":            `nope`,
		"a repeated cell key": `{"version":1,"workload":"w","workloadDigest":"d","cells":[` + cell + `,` + cell + `]}`,
	} {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %s", what)
		}
	}
	if _, err := Decode(strings.NewReader(`{"version":1,"workload":"w","workloadDigest":"d","cells":[` + cell + `]}`)); err != nil {
		t.Errorf("rejected a one-cell report: %v", err)
	}
}

func TestCellKeyString(t *testing.T) {
	k := CellKey{Scheduler: "s3", Engine: EngineSim, Pipeline: true}
	if got := k.String(); got != "s3/sim/pipe/-" {
		t.Fatalf("String() = %q", got)
	}
}

func TestDigestConsensus(t *testing.T) {
	r := sampleReport()
	d, err := r.DigestConsensus()
	if err != nil || d != "d1d1d1d1d1d1" {
		t.Fatalf("DigestConsensus = %q, %v", d, err)
	}
	r.Cells[1].OutputDigest = "different"
	if _, err := r.DigestConsensus(); err == nil {
		t.Fatal("consensus accepted disagreeing digests")
	}
	// Digest-less cells (meta workloads) don't break consensus.
	r.Cells[1].OutputDigest = ""
	if d, err := r.DigestConsensus(); err != nil || d != "d1d1d1d1d1d1" {
		t.Fatalf("DigestConsensus with empty cell = %q, %v", d, err)
	}
}

func TestMarkdownTable(t *testing.T) {
	md := sampleReport().Markdown()
	for _, want := range []string{"| fifo/sim/-/- |", "| s3/sim/pipe/cache |", "100.00", "68.5%", "`d1d1d1d1d1d1`"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestSortOrder(t *testing.T) {
	r := &Report{
		Version: Version, Workload: "w", WorkloadDigest: "d",
		Cells: []Cell{
			{Key: CellKey{Scheduler: "s3", Engine: EngineSim, Pipeline: true}},
			{Key: CellKey{Scheduler: "s3", Engine: EngineSim, Pipeline: false, Cache: true}},
			{Key: CellKey{Scheduler: "s3", Engine: EngineSim, Pipeline: false, Cache: false}},
			{Key: CellKey{Scheduler: "s3", Engine: EngineReal}},
			{Key: CellKey{Scheduler: "fifo", Engine: EngineSim}},
		},
	}
	r.Sort()
	want := []string{
		"fifo/sim/-/-",
		"s3/engine/-/-",
		"s3/sim/-/-",
		"s3/sim/-/cache",
		"s3/sim/pipe/-",
	}
	for i, w := range want {
		if got := r.Cells[i].Key.String(); got != w {
			t.Fatalf("cell %d = %s, want %s", i, got, w)
		}
	}
}

// A zero-TET baseline cell can't be divided by; any nonzero current
// value must still read as a regression, and zero-vs-zero as clean.
func TestCompareZeroBaseline(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	base.Cells[0].TET = 0
	base.Cells[0].ART = 0
	cur.Cells[0].TET = 5
	cur.Cells[0].ART = 0
	d, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	regs := d.Regressions()
	if len(regs) != 1 || regs[0].Key.Scheduler != "fifo" {
		t.Fatalf("zero-baseline growth not flagged: %+v", d.Rows)
	}
	if regs[0].DART != 0 {
		t.Fatalf("zero-vs-zero ART delta = %v, want 0", regs[0].DART)
	}
}

func TestCompareGate(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	d, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(d.Rows) != 2 || len(d.Regressions()) != 0 {
		t.Fatalf("identical reports diffed: %+v", d)
	}

	// 20% TET regression on one cell trips the 10% gate.
	cur.Cell(CellKey{Scheduler: "s3", Engine: EngineSim, Pipeline: true, Cache: true}).TET = 120
	d, err = Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	regs := d.Regressions()
	if len(regs) != 1 || regs[0].Key.Scheduler != "s3" || regs[0].DTET < 0.19 || regs[0].DTET > 0.21 {
		t.Fatalf("regressions = %+v", regs)
	}
	if md := d.Markdown(); !strings.Contains(md, "REGRESSED") {
		t.Fatalf("diff markdown missing verdict:\n%s", md)
	}

	// ART-only regression also trips.
	cur = sampleReport()
	cur.Cells[0].ART = 150
	d, err = Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions()) != 1 {
		t.Fatalf("ART regression not caught: %+v", d.Rows)
	}

	// Improvements never trip the gate.
	cur = sampleReport()
	cur.Cells[0].TET = 50
	cur.Cells[0].ART = 30
	d, err = Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions()) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", d.Rows)
	}
}

func TestComparePartialMatrix(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Cells = cur.Cells[:1] // sim-only CI run vs full baseline
	d, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(d.Rows) != 1 || len(d.MissingInCurrent) != 1 {
		t.Fatalf("partial diff: %+v", d)
	}
	if md := d.Markdown(); !strings.Contains(md, "missing in current") {
		t.Fatalf("diff markdown missing note:\n%s", md)
	}
}

func TestCompareRefusals(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.WorkloadDigest = strings.Repeat("0", 64)
	if _, err := Compare(base, cur, 0.10); err == nil {
		t.Fatal("compared different workloads")
	}
	cur = sampleReport()
	cur.Cells[0].OutputDigest = "poisoned"
	if _, err := Compare(base, cur, 0.10); err == nil {
		t.Fatal("compared a digest-inconsistent report")
	}
	if _, err := Compare(base, sampleReport(), -1); err == nil {
		t.Fatal("accepted negative threshold")
	}
	empty := &Report{Version: Version, Workload: base.Workload, WorkloadDigest: base.WorkloadDigest}
	if _, err := Compare(base, empty, 0.10); err == nil {
		t.Fatal("compared reports sharing no cells")
	}
}
