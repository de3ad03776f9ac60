package experiments

import "testing"

func TestPipelineStudy(t *testing.T) {
	res, err := PipelineStudy(DefaultParams())
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
