package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"s3sched/internal/comms"
)

// scrapeSample is one reading of the master's counters from outside:
// /metrics (Prometheus text) and /cluster (membership table with each
// worker's last heartbeat ledger).
type scrapeSample struct {
	at      time.Time
	metrics map[string]float64
	workers []workerLedger
}

// workerLedger is one worker's row of /cluster. The task ledger is as old
// as the worker's last heartbeat, so it carries its own timestamp.
type workerLedger struct {
	id      string
	at      time.Time
	tasks   comms.WireStats
	control comms.ConnStats
}

func scrapeCluster(ctx context.Context, c *http.Client, base string) (*scrapeSample, error) {
	raw, err := getBody(ctx, c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	s := &scrapeSample{at: time.Now(), metrics: parsePrometheus(raw)}
	var view struct {
		Workers []comms.WorkerInfo `json:"workers"`
	}
	if err := getJSON(ctx, c, base+"/cluster", &view); err != nil {
		return nil, err
	}
	now := time.Now()
	for _, w := range view.Workers {
		s.workers = append(s.workers, workerLedger{
			id:      w.ID,
			at:      now.Add(-time.Duration(w.SinceHeartbeat * float64(time.Second))),
			tasks:   w.Tasks,
			control: w.Control,
		})
	}
	return s, nil
}

// parsePrometheus keeps the unlabelled samples of a text exposition:
// counters, gauges and the _sum / _count lines of histograms.
func parsePrometheus(raw []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out
}

// scrapeDelta is what moved between two samples of one cluster.
type scrapeDelta struct {
	seconds float64
	metrics map[string]float64 // /metrics name -> increase over the window
	jobs    float64            // s3_jobs_completed_total increase
	// taskRate sums, over the workers, each ledger field's rate per second
	// across that worker's own heartbeat-to-heartbeat interval.
	taskRate        map[string]float64
	controlFramesPS float64
	controlBytesPS  float64
}

func diffScrapes(a, b *scrapeSample) (scrapeDelta, error) {
	d := scrapeDelta{
		seconds:  b.at.Sub(a.at).Seconds(),
		metrics:  make(map[string]float64),
		taskRate: make(map[string]float64),
	}
	if d.seconds <= 0 {
		return d, fmt.Errorf("scrape window of %v", b.at.Sub(a.at))
	}
	for k, v := range b.metrics {
		d.metrics[k] = v - a.metrics[k]
	}
	d.jobs = d.metrics["s3_jobs_completed_total"]
	before := make(map[string]workerLedger, len(a.workers))
	for _, w := range a.workers {
		before[w.id] = w
	}
	for _, w := range b.workers {
		p, ok := before[w.id]
		if !ok {
			return d, fmt.Errorf("worker %s joined during the window", w.id)
		}
		dt := w.at.Sub(p.at).Seconds()
		if dt <= 0 {
			return d, fmt.Errorf("worker %s sent no heartbeat during the window", w.id)
		}
		add := func(name string, after, prior int64) { d.taskRate[name] += float64(after-prior) / dt }
		add("BlockReads", w.tasks.BlockReads, p.tasks.BlockReads)
		add("BytesScanned", w.tasks.BytesScanned, p.tasks.BytesScanned)
		add("MapTasks", w.tasks.MapTasks, p.tasks.MapTasks)
		add("ReduceTasks", w.tasks.ReduceTasks, p.tasks.ReduceTasks)
		add("CacheHits", w.tasks.CacheHits, p.tasks.CacheHits)
		add("CacheMisses", w.tasks.CacheMisses, p.tasks.CacheMisses)
		add("CacheEvictions", w.tasks.CacheEvictions, p.tasks.CacheEvictions)
		d.controlFramesPS += float64(w.control.FramesSent+w.control.FramesRecv-p.control.FramesSent-p.control.FramesRecv) / d.seconds
		d.controlBytesPS += float64(w.control.BytesSent+w.control.BytesRecv-p.control.BytesSent-p.control.BytesRecv) / d.seconds
	}
	return d, nil
}

// scrapeDeltaSince samples the cluster again and diffs against first. A
// worker's ledger only moves with its heartbeat (one a second), so after a
// short window it waits for every worker to have reported once more.
func scrapeDeltaSince(ctx context.Context, c *http.Client, base string, first *scrapeSample) (scrapeDelta, error) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		last, err := scrapeCluster(ctx, c, base)
		if err != nil {
			return scrapeDelta{}, err
		}
		d, err := diffScrapes(first, last)
		if err == nil || time.Now().After(deadline) {
			return d, err
		}
		select {
		case <-ctx.Done():
			return d, ctx.Err()
		case <-tick.C:
		}
	}
}
