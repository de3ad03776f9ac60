package experiments

import "testing"

func TestFig3Shape(t *testing.T) {
	cfg := DefaultFig3Config()
	cfg.MaxJobs = 6 // keep the unit-test run short; the bench sweeps 10
	points, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	for i, p := range points {
		if p.Jobs != i+1 {
			t.Errorf("point %d jobs = %d", i, p.Jobs)
		}
		if p.Total <= 0 || p.MapPhase <= 0 {
			t.Errorf("point %d has non-positive timings: %+v", i, p)
		}
		// What the figure's mechanism guarantees exactly: the shared
		// scan keeps block reads constant in n while every job still
		// maps every block.
		if p.BlockReads != int64(cfg.Blocks) {
			t.Errorf("point %d block reads = %d, want %d (one scan regardless of batch size)",
				i, p.BlockReads, cfg.Blocks)
		}
		if want := int64(p.Jobs * cfg.Blocks); p.MapTasks != want {
			t.Errorf("point %d map tasks = %d, want %d (jobs x blocks)", i, p.MapTasks, want)
		}
	}
	// The magnitude (paper: +25.5% at n=10) is asserted in virtual time
	// by TestFig3SimMatchesPaperRatio; two single wall-clock samples of
	// a millisecond-scale run are only worth logging.
	first, last := points[0].Total, points[len(points)-1].Total
	t.Logf("combined cost n=1 %v, n=%d %v (x%.2f)", first, len(points), last, float64(last)/float64(first))
}

func TestFig3Validation(t *testing.T) {
	if _, err := Fig3(Fig3Config{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestTable1Profile(t *testing.T) {
	res, err := Table1(DefaultTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.InputBytes != 64*64<<10 {
		t.Errorf("input bytes = %d", res.InputBytes)
	}
	if res.MapTasks != 64 {
		t.Errorf("map tasks = %d, want 64", res.MapTasks)
	}
	if res.MapInputRecords == 0 || res.MapOutputRecords == 0 {
		t.Error("record counters empty")
	}
	// Pattern counting: output records are a subset of input words.
	if res.MapOutputRecords >= res.MapInputRecords {
		t.Errorf("map output %d should be below input %d (pattern filter)", res.MapOutputRecords, res.MapInputRecords)
	}
	// Reduce output is distinct matched words — small, like the
	// paper's 60-80 thousand vs 250 million map records.
	if res.ReduceOutRecords >= res.MapOutputRecords/10 {
		t.Errorf("reduce output %d not sharply smaller than map output %d", res.ReduceOutRecords, res.MapOutputRecords)
	}
	if res.ScaleToPaper <= 0 || res.ProjMapOutRecords <= res.MapOutputRecords {
		t.Errorf("projection wrong: %+v", res)
	}
}

func TestTable1Validation(t *testing.T) {
	if _, err := Table1(Table1Config{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestFig3SimMatchesPaperRatio(t *testing.T) {
	points, err := Fig3Sim(DefaultParams(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("points = %d", len(points))
	}
	// Monotone non-decreasing total cost in batch size.
	for i := 1; i < len(points); i++ {
		if points[i].Total < points[i-1].Total {
			t.Errorf("combined cost decreased at n=%d", points[i].Jobs)
		}
	}
	// Paper: merging 10 jobs costs +25.5%. Accept [1.15, 1.40].
	r := points[9].VsSingle
	if r < 1.15 || r > 1.40 {
		t.Errorf("n=10 cost ratio = %.3f, want ~1.255 (paper Fig. 3)", r)
	}
	if _, err := Fig3Sim(DefaultParams(), 0); err == nil {
		t.Error("zero maxJobs should fail")
	}
}
