package experiments

import "testing"

func TestPipelineStudy(t *testing.T) {
	res, err := PipelineStudyModes(DefaultParams(), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SerialTET <= 0 || row.PipelinedTET <= 0 {
			t.Errorf("%s: degenerate TETs %v / %v", row.Workload, row.SerialTET, row.PipelinedTET)
		}
		// Under the default calibration every workload benefits; the
		// deterministic simulator makes this stable.
		if row.PipelinedTET > row.SerialTET {
			t.Errorf("%s: pipelined TET %v exceeds serial %v", row.Workload, row.PipelinedTET, row.SerialTET)
		}
		if row.Overlap <= 0 {
			t.Errorf("%s: no reduce/scan overlap recorded", row.Workload)
		}
	}
	// The heavy workload (200x reduce output, §V-E) is where reduces
	// are worth hiding: expect a large double-digit gain.
	for _, name := range []string{"heavy-sparse", "heavy-dense"} {
		found := false
		for _, row := range res.Rows {
			if row.Workload == name {
				found = true
				if row.TETGainPct < 20 {
					t.Errorf("%s: TET gain %.1f%%, want >= 20%%", name, row.TETGainPct)
				}
			}
		}
		if !found {
			t.Errorf("workload %s missing", name)
		}
	}
}

func TestPipelineStudyModes(t *testing.T) {
	// Single-mode runs leave the other side's columns zero.
	on, err := PipelineStudyModes(DefaultParams(), false, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range on.Rows {
		if row.SerialTET != 0 || row.PipelinedTET <= 0 || row.TETGainPct != 0 {
			t.Errorf("pipelined-only row malformed: %+v", row)
		}
	}
	off, err := PipelineStudyModes(DefaultParams(), true, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range off.Rows {
		if row.PipelinedTET != 0 || row.SerialTET <= 0 {
			t.Errorf("serial-only row malformed: %+v", row)
		}
	}
	if _, err := PipelineStudyModes(DefaultParams(), false, false); err == nil {
		t.Error("both modes disabled should fail")
	}
}
