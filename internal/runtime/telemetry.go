package runtime

import (
	"strconv"

	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// telemetry is the engine's observability sink: a span log (hierarchy
// run → round → scan-stage/reduce-stage → per-job subjob) and a live
// metrics bundle. Both sinks are optional; a nil *telemetry (no sink
// configured) makes every method a no-op, so the run loop calls it
// unconditionally.
//
// Everything recorded here is a pure function of the run's clock times
// and round compositions, so a deterministic executor (the simulator)
// yields byte-identical metric snapshots and identical span trees
// across runs — the property the telemetry tests pin down.
type telemetry struct {
	log *trace.Log
	rm  *metrics.RunMetrics
	run trace.SpanID
	// roundsOf counts the rounds each running job has ridden, observed
	// into JobRounds and forgotten at its completion; kept only with rm.
	roundsOf map[scheduler.JobID]int
}

// newTelemetry returns nil when opts carries no sink.
func newTelemetry(opts Options) *telemetry {
	if opts.Spans == nil && opts.Metrics == nil {
		return nil
	}
	return &telemetry{
		log:      opts.Spans,
		rm:       opts.Metrics,
		roundsOf: make(map[scheduler.JobID]int),
	}
}

func (t *telemetry) beginRun(scheme string, at vclock.Time) {
	if t == nil {
		return
	}
	t.run = t.log.StartSpan(at, "run", trace.SpanOpts{
		Cat: "driver", Job: -1, Segment: -1,
		Args: []trace.Arg{{Key: "scheme", Value: scheme}},
	})
}

func (t *telemetry) jobSubmitted() {
	if t == nil || t.rm == nil {
		return
	}
	t.rm.JobsSubmitted.Inc()
}

// admissionDepth publishes the arrival source's queued-but-unadmitted
// job count after a delivery.
func (t *telemetry) admissionDepth(n int) {
	if t == nil || t.rm == nil {
		return
	}
	t.rm.AdmissionQueue.Set(float64(n))
}

// jobsStarted records the waiting interval of each job a round was the
// first to include.
func (t *telemetry) jobsStarted(waits []vclock.Duration) {
	if t == nil || t.rm == nil {
		return
	}
	for _, w := range waits {
		t.rm.JobWaiting.Observe(w.Seconds())
	}
}

// recordRound records one retired round, run from start to end: its
// span subtree and its duration/batch histograms. split reports whether
// the scan/reduce boundary (mapEnd) is known; without it only the
// whole-round histogram is observed. The histograms observe the
// executor-reported stage durations (mapDur/redDur), not differences of
// absolute span times, which round differently.
func (t *telemetry) recordRound(r scheduler.Round, seq int,
	start, mapEnd, end vclock.Time, mapDur, redDur vclock.Duration, split bool) {
	if t == nil {
		return
	}
	if t.rm != nil {
		for _, j := range r.Jobs {
			t.roundsOf[j.ID]++
		}
	}
	if t.log != nil {
		round := t.log.StartSpan(start, "round", trace.SpanOpts{
			Cat: "driver", Parent: t.run, Job: -1, Segment: r.Segment,
			Args: []trace.Arg{
				{Key: "seq", Value: strconv.Itoa(seq)},
				{Key: "batch", Value: strconv.Itoa(len(r.Jobs))},
				{Key: "blocks", Value: strconv.Itoa(len(r.Blocks))},
			},
		})
		if split {
			scan := t.log.StartSpan(start, "scan-stage", trace.SpanOpts{
				Cat: "driver", Parent: round, Job: -1, Segment: r.Segment})
			t.log.EndSpan(scan, mapEnd)
			red := t.log.StartSpan(mapEnd, "reduce-stage", trace.SpanOpts{
				Cat: "driver", Parent: round, Job: -1, Segment: r.Segment})
			t.log.EndSpan(red, end)
		}
		for _, sj := range r.Jobs {
			sub := t.log.StartSpan(start, "subjob", trace.SpanOpts{
				Cat: "driver", Parent: round, Job: int(sj.ID), Segment: r.Segment})
			t.log.EndSpan(sub, end)
		}
		t.log.EndSpan(round, end)
	}
	if t.rm != nil {
		t.rm.RoundsTotal.Inc()
		t.rm.BatchWidth.Observe(float64(len(r.Jobs)))
		t.rm.RoundDuration.Observe((mapDur + redDur).Seconds())
		if split {
			t.rm.RoundScan.Observe(mapDur.Seconds())
			t.rm.RoundReduce.Observe(redDur.Seconds())
		}
	}
}

func (t *telemetry) roundLost(r scheduler.Round) {
	if t == nil || t.rm == nil {
		return
	}
	t.rm.RequeuedRounds.Inc()
	t.rm.RequeuedSubJobs.Add(float64(len(r.Jobs)))
}

func (t *telemetry) jobCompleted(id scheduler.JobID, rt vclock.Duration) {
	if t == nil || t.rm == nil {
		return
	}
	t.rm.JobsCompleted.Inc()
	t.rm.JobResponse.Observe(rt.Seconds())
	t.rm.JobRounds.Observe(float64(t.roundsOf[id]))
	delete(t.roundsOf, id)
}

func (t *telemetry) queueDepth(n int) {
	if t == nil || t.rm == nil {
		return
	}
	t.rm.QueueDepth.Set(float64(n))
}

// endRun closes the run span and folds the run's end-of-run fault and
// cache counters into the registry.
func (t *telemetry) endRun(res *Result) {
	if t == nil {
		return
	}
	t.log.EndSpan(t.run, res.End, trace.Arg{Key: "rounds", Value: strconv.Itoa(res.Rounds)})
	if t.rm != nil {
		t.rm.VirtualTime.Set(float64(res.End))
		t.rm.RetriesTotal.Add(float64(res.Faults.Retries))
		t.rm.FailedAttemptsTotal.Add(float64(res.Faults.FailedAttempts))
		t.rm.SetCacheStats(res.Cache)
	}
}
