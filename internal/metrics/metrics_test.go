package metrics

import (
	"testing"
	"testing/quick"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

func TestPaperExample1FIFO(t *testing.T) {
	// §III Example 1, FIFO: J1 at 0 completes at 100, J2 at 20
	// completes at 200 -> TET 200, ART 140.
	c := NewCollector()
	c.Submit(1, 0)
	c.Submit(2, 20)
	c.Complete(1, 100)
	c.Complete(2, 200)
	tet, err := c.TET()
	if err != nil {
		t.Fatal(err)
	}
	if tet != 200 {
		t.Errorf("TET = %v, want 200", tet)
	}
	art, err := c.ART()
	if err != nil {
		t.Fatal(err)
	}
	if art != 140 {
		t.Errorf("ART = %v, want 140", art)
	}
}

func TestResponseTime(t *testing.T) {
	c := NewCollector()
	c.Submit(7, 10)
	c.Complete(7, 35)
	rt, err := c.ResponseTime(7)
	if err != nil {
		t.Fatal(err)
	}
	if rt != 25 {
		t.Errorf("rt = %v, want 25", rt)
	}
	if _, err := c.ResponseTime(9); err == nil {
		t.Error("unknown job should error")
	}
}

func TestIncompleteDetection(t *testing.T) {
	c := NewCollector()
	c.Submit(1, 0)
	c.Submit(2, 1)
	c.Complete(2, 5)
	inc := c.Incomplete()
	if len(inc) != 1 || inc[0] != 1 {
		t.Fatalf("Incomplete = %v", inc)
	}
	if _, err := c.TET(); err == nil {
		t.Error("TET with incomplete job should error")
	}
	if _, err := c.ART(); err == nil {
		t.Error("ART with incomplete job should error")
	}
	if _, err := c.Summarize("x"); err == nil {
		t.Error("Summarize with incomplete job should error")
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if _, err := c.TET(); err == nil {
		t.Error("empty TET should error")
	}
	if _, err := c.ART(); err == nil {
		t.Error("empty ART should error")
	}
	if c.Jobs() != 0 {
		t.Error("Jobs != 0")
	}
}

func TestCollectorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(c *Collector)
	}{
		{"double submit", func(c *Collector) { c.Submit(1, 0); c.Submit(1, 0) }},
		{"complete unknown", func(c *Collector) { c.Complete(1, 0) }},
		{"double complete", func(c *Collector) { c.Submit(1, 0); c.Complete(1, 1); c.Complete(1, 2) }},
		{"complete before submit time", func(c *Collector) { c.Submit(1, 10); c.Complete(1, 5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn(NewCollector())
		})
	}
}

// Property: ART never exceeds TET when all jobs are submitted at or
// after the first submission and complete by the last completion.
func TestARTAtMostTETProperty(t *testing.T) {
	prop := func(subs8, durs8 [6]uint8) bool {
		c := NewCollector()
		for i := 0; i < 6; i++ {
			sub := vclock.Time(subs8[i] % 100)
			c.Submit(scheduler.JobID(i), sub)
			c.Complete(scheduler.JobID(i), sub.Add(vclock.Duration(durs8[i]%50)+1))
		}
		tet, err1 := c.TET()
		art, err2 := c.ART()
		if err1 != nil || err2 != nil {
			return false
		}
		// Each response interval lies within [first submit, last
		// complete], so its length — and hence the mean — is ≤ TET.
		return art <= tet+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	c := NewCollector()
	c.Submit(1, 0)
	c.Complete(1, 10)
	s, err := c.Summarize("s3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme != "s3" || s.TET != 10 || s.ART != 10 {
		t.Errorf("summary = %+v", s)
	}
}

func TestWaitingProcessingDecomposition(t *testing.T) {
	c := NewCollector()
	c.Submit(1, 0)
	c.Start(1, 30)
	c.Start(1, 50) // later rounds must not move the start
	c.Complete(1, 130)
	w, err := c.WaitingTime(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.ProcessingTime(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := c.ResponseTime(1)
	if w != 30 || p != 100 {
		t.Fatalf("wait/processing = %v/%v, want 30/100", w, p)
	}
	if w+p != rt {
		t.Fatalf("decomposition %v+%v != response %v", w, p, rt)
	}
}

func TestDecompositionErrors(t *testing.T) {
	c := NewCollector()
	c.Submit(1, 5)
	if _, err := c.WaitingTime(1); err == nil {
		t.Error("no start recorded should error")
	}
	if _, err := c.ProcessingTime(1); err == nil {
		t.Error("no start recorded should error")
	}
	if _, err := c.WaitingTime(9); err == nil {
		t.Error("unknown job should error")
	}
	for _, fn := range []func(){
		func() { c.Start(9, 0) }, // never submitted
		func() { c.Start(1, 2) }, // before submission
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPercentilesAndMax(t *testing.T) {
	c := NewCollector()
	for i, rt := range []vclock.Duration{10, 20, 30, 40, 50} {
		id := scheduler.JobID(i + 1)
		c.Submit(id, 0)
		c.Complete(id, vclock.Time(rt))
	}
	p50, err := c.PercentileResponse(50)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 30 {
		t.Errorf("p50 = %v, want 30", p50)
	}
	p90, _ := c.PercentileResponse(90)
	if p90 != 50 {
		t.Errorf("p90 = %v, want 50", p90)
	}
	mx, _ := c.PercentileResponse(100)
	if mx != 50 {
		t.Errorf("max = %v, want 50", mx)
	}
	if _, err := c.PercentileResponse(0); err == nil {
		t.Error("percentile 0 should fail")
	}
	if _, err := c.PercentileResponse(101); err == nil {
		t.Error("percentile 101 should fail")
	}
	rts, err := c.ResponseTimes()
	if err != nil || len(rts) != 5 || rts[0] != 10 {
		t.Errorf("ResponseTimes = %v, %v", rts, err)
	}
	if _, err := NewCollector().ResponseTimes(); err == nil {
		t.Error("empty collector should fail")
	}
}

func TestJobTable(t *testing.T) {
	c := NewCollector()
	c.Submit(2, 10)
	c.Submit(1, 0)
	c.Start(1, 5)
	c.Start(2, 12)
	c.Complete(1, 50)
	c.Complete(2, 60)
	rows, err := c.JobTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].ID != 1 || rows[1].ID != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Waiting != 5 || rows[0].Processing != 45 || rows[0].Response != 50 {
		t.Errorf("row 1 = %+v", rows[0])
	}
	// Incomplete collector fails.
	bad := NewCollector()
	bad.Submit(1, 0)
	if _, err := bad.JobTable(); err == nil {
		t.Error("incomplete job table should fail")
	}
}

// Property: for any valid submit <= start <= complete ordering,
// waiting + processing == response exactly, and the job table agrees
// with the individual accessors.
func TestDecompositionIdentityProperty(t *testing.T) {
	prop := func(subs, waits, procs [5]uint8) bool {
		c := NewCollector()
		for i := 0; i < 5; i++ {
			id := scheduler.JobID(i + 1)
			sub := vclock.Time(subs[i] % 100)
			start := sub.Add(vclock.Duration(waits[i] % 50))
			done := start.Add(vclock.Duration(procs[i]%50) + 1)
			c.Submit(id, sub)
			c.Start(id, start)
			c.Complete(id, done)
		}
		rows, err := c.JobTable()
		if err != nil || len(rows) != 5 {
			return false
		}
		for _, r := range rows {
			if r.Waiting+r.Processing != r.Response {
				return false
			}
			w, err1 := c.WaitingTime(r.ID)
			p, err2 := c.ProcessingTime(r.ID)
			if err1 != nil || err2 != nil || w != r.Waiting || p != r.Processing {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCacheStatsAccounting(t *testing.T) {
	var cs CacheStats
	if cs.HitRatio() != 0 {
		t.Errorf("empty hit ratio = %v, want 0", cs.HitRatio())
	}
	cs.Add(CacheStats{Hits: 3, Misses: 1, Evictions: 2, Bytes: 100})
	cs.Add(CacheStats{Hits: 1, Misses: 3, Bytes: 28})
	if cs.Hits != 4 || cs.Misses != 4 || cs.Evictions != 2 || cs.Bytes != 128 {
		t.Errorf("after Add, cs = %+v", cs)
	}
	if cs.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", cs.HitRatio())
	}

	c := NewCollector()
	if got := c.CacheStats(); got != (CacheStats{}) {
		t.Errorf("fresh collector cache stats = %+v", got)
	}
	c.AddCacheStats(CacheStats{Hits: 5, Misses: 5})
	c.AddCacheStats(CacheStats{Hits: 1, Evictions: 4})
	if got := c.CacheStats(); got.Hits != 6 || got.Misses != 5 || got.Evictions != 4 {
		t.Errorf("collector cache stats = %+v", got)
	}
}

func TestFaultStatsFold(t *testing.T) {
	var fs FaultStats
	fs.Add(FaultStats{Retries: 2, FailedAttempts: 3, RequeuedRounds: 4, RequeuedSubJobs: 5})
	fs.Add(FaultStats{Retries: 1, FailedAttempts: 1})
	want := FaultStats{Retries: 3, FailedAttempts: 4, RequeuedRounds: 4, RequeuedSubJobs: 5}
	if fs != want {
		t.Errorf("after Add, fs = %+v, want %+v", fs, want)
	}
	c := NewCollector()
	c.AddFaultStats(FaultStats{Retries: 1, RequeuedRounds: 2})
	c.AddFaultStats(FaultStats{RequeuedSubJobs: 1})
	got := c.FaultStats()
	if got.Retries != 1 || got.RequeuedRounds != 2 || got.RequeuedSubJobs != 1 {
		t.Errorf("collector fault stats = %+v", got)
	}
}
