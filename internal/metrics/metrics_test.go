package metrics

import (
	"testing"
	"testing/quick"

	"s3sched/internal/dfs"
	"s3sched/internal/vclock"
)

// job is one job's stamps, as runtime.JobStatus carries them.
type job struct {
	sub, done vclock.Time
	complete  bool
}

func (j job) Span() (vclock.Time, vclock.Time, bool) { return j.sub, j.done, j.complete }

func finished(sub, done vclock.Time) job { return job{sub, done, true} }

func TestPaperExample1FIFO(t *testing.T) {
	// §III Example 1, FIFO: J1 at 0 completes at 100, J2 at 20
	// completes at 200 -> TET 200, ART 140.
	jobs := []job{finished(0, 100), finished(20, 200)}
	tet, err := TET(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if tet != 200 {
		t.Errorf("TET = %v, want 200", tet)
	}
	art, err := ART(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if art != 140 {
		t.Errorf("ART = %v, want 140", art)
	}
}

func TestResponseTime(t *testing.T) {
	rts, err := responseTimes([]job{finished(10, 35)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rts) != 1 || rts[0] != 25 {
		t.Errorf("rts = %v, want [25]", rts)
	}
	if _, err := responseTimes([]job{{sub: 10}}); err == nil {
		t.Error("a job not yet complete should error")
	}
}

func TestIncompleteDetection(t *testing.T) {
	jobs := []job{{sub: 0}, finished(1, 5)}
	if _, err := TET(jobs); err == nil {
		t.Error("TET with incomplete job should error")
	}
	if _, err := ART(jobs); err == nil {
		t.Error("ART with incomplete job should error")
	}
	if _, err := Summarize(jobs); err == nil {
		t.Error("Summarize with incomplete job should error")
	}
}

// An empty job table has no metrics.
func TestEmptyCollector(t *testing.T) {
	if _, err := TET([]job(nil)); err == nil {
		t.Error("empty TET should error")
	}
	if _, err := ART([]job(nil)); err == nil {
		t.Error("empty ART should error")
	}
}

// Property: ART never exceeds TET when all jobs are submitted at or
// after the first submission and complete by the last completion.
func TestARTAtMostTETProperty(t *testing.T) {
	prop := func(subs8, durs8 [6]uint8) bool {
		var jobs []job
		for i := 0; i < 6; i++ {
			sub := vclock.Time(subs8[i] % 100)
			jobs = append(jobs, finished(sub, sub.Add(vclock.Duration(durs8[i]%50)+1)))
		}
		tet, err1 := TET(jobs)
		art, err2 := ART(jobs)
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
	s, err := Summarize([]job{finished(0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if s.TET != 10 || s.ART != 10 || s.P95 != 10 {
		t.Errorf("summary = %+v", s)
	}
}

func TestPercentilesAndMax(t *testing.T) {
	var jobs []job
	for _, rt := range []vclock.Time{10, 20, 30, 40, 50} {
		jobs = append(jobs, finished(0, rt))
	}
	p50, err := PercentileResponse(jobs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 30 {
		t.Errorf("p50 = %v, want 30", p50)
	}
	p90, _ := PercentileResponse(jobs, 90)
	if p90 != 50 {
		t.Errorf("p90 = %v, want 50", p90)
	}
	mx, _ := PercentileResponse(jobs, 100)
	if mx != 50 {
		t.Errorf("max = %v, want 50", mx)
	}
	if _, err := PercentileResponse(jobs, 0); err == nil {
		t.Error("percentile 0 should fail")
	}
	if _, err := PercentileResponse(jobs, 101); err == nil {
		t.Error("percentile 101 should fail")
	}
	if rts, err := responseTimes(jobs); err != nil || len(rts) != 5 || rts[0] != 10 {
		t.Errorf("responseTimes = %v, %v", rts, err)
	}
	if _, err := PercentileResponse([]job(nil), 50); err == nil {
		t.Error("an empty job table should fail")
	}
}

func TestCacheStatsAccounting(t *testing.T) {
	var cs dfs.CacheStats
	if cs.HitRatio() != 0 {
		t.Errorf("empty hit ratio = %v, want 0", cs.HitRatio())
	}
	cs.Add(dfs.CacheStats{Hits: 3, Misses: 1, Evictions: 2, Bytes: 100})
	cs.Add(dfs.CacheStats{Hits: 1, Misses: 3, Bytes: 28})
	if cs.Hits != 4 || cs.Misses != 4 || cs.Evictions != 2 || cs.Bytes != 128 {
		t.Errorf("after Add, cs = %+v", cs)
	}
	if cs.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", cs.HitRatio())
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
}
