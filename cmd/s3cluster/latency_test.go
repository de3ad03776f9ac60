package main

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"s3sched/internal/workload"
)

// jobTimes is the slice of GET /jobs/<id> that times a job.
type jobTimes struct {
	State      string  `json:"state"`
	AdmittedAt float64 `json:"admittedAt"`
	DoneAt     float64 `json:"doneAt"`
}

func getJobTimes(t *testing.T, base string, id int) jobTimes {
	t.Helper()
	var jt jobTimes
	if err := getJSON(fmt.Sprintf("%s/jobs/%d", base, id), &jt); err != nil {
		t.Fatalf("GET /jobs/%d: %v", id, err)
	}
	return jt
}

// The daemon's latency is the one its clients see. Jobs are POSTed two
// at a time, so the second waits for a round boundary, and each is
// polled every 5 ms until it reads done. For the median job, doneAt −
// admittedAt is at most the client's POST → seen-done time and short of
// it by no more than the poll interval and 10 ms of HTTP; the mean of
// s3_job_response_seconds is the mean of those doneAt − admittedAt, and
// as close to the client's mean.
func TestDaemonLatencyIsTheClients(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process latency test")
	}
	const (
		pairs = 11
		poll  = 5 * time.Millisecond
		slack = poll + 10*time.Millisecond
	)
	ctrl, statusAddr := pickAddr(t), pickAddr(t)
	base := "http://" + statusAddr
	spawnMaster(t, "master", ctrl, statusAddr, "", "")
	startCrashWorker(t, ctrl, "worker-a")
	startCrashWorker(t, ctrl, "worker-b")
	waitStatus(t, base, 30*time.Second, "master up", func(statusSnapshot) bool { return true })

	prefixes := workload.DistinctPrefixes(2 * pairs)
	var client, daemon, gaps []float64
	for p := 0; p < pairs; p++ {
		sent := map[int]time.Time{}
		for _, prefix := range prefixes[2*p : 2*p+2] {
			at := time.Now()
			sent[postJob(t, base, "wordcount", prefix)] = at
		}
		deadline := time.Now().Add(60 * time.Second)
		for len(sent) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("jobs %v not done within a minute", sent)
			}
			time.Sleep(poll)
			for id, at := range sent {
				jt := getJobTimes(t, base, id)
				if jt.State != "done" {
					continue
				}
				c, d := time.Since(at).Seconds(), jt.DoneAt-jt.AdmittedAt
				client, daemon, gaps = append(client, c), append(daemon, d), append(gaps, c-d)
				delete(sent, id)
			}
		}
	}
	slices.Sort(gaps)
	if gap := gaps[len(gaps)/2]; gap < 0 || gap > slack.Seconds() {
		t.Errorf("median job: the client saw %.2f ms more than doneAt − admittedAt, want 0 to %v (gaps %v)", gap*1e3, slack, gaps)
	}

	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	count := scrapeMetric(t, base, "s3_job_response_seconds_count")
	scraped := scrapeMetric(t, base, "s3_job_response_seconds_sum") / count
	if int(count) != len(daemon) || math.Abs(scraped-mean(daemon)) > 1e-6 {
		t.Errorf("s3_job_response_seconds: %v jobs, mean %v s; GET /jobs: %d jobs, mean %v s", count, scraped, len(daemon), mean(daemon))
	}
	t.Logf("%d jobs: median gap %.2f ms, mean latency %.2f ms by the client, %.2f ms by /metrics",
		len(gaps), gaps[len(gaps)/2]*1e3, mean(client)*1e3, scraped*1e3)
	if gap := mean(client) - scraped; gap < 0 || gap > slack.Seconds() {
		t.Errorf("s3_job_response_seconds mean %.2f ms, the client's %.2f ms: want it at most %v shorter", scraped*1e3, mean(client)*1e3, slack)
	}
}
