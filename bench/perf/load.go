package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// The closed loop. One submitter goroutine keeps W jobs outstanding over
// its own keep-alive connection; the caller's goroutine is the poller on a
// second connection. The poller asks for the oldest outstanding job only
// and stops at the first one not done, because S^3 completes the jobs of
// one file in admission order; it checks that assumption against the
// doneAt stamps and counts violations.

const (
	pollEvery  = 5 * time.Millisecond
	jobTimeout = 30 * time.Second
	// maxFailures aborts a run that has stopped making progress instead of
	// letting it spin on a dead cluster until the window ends.
	maxFailures = 50
)

type loader struct {
	base      string // http://host:port
	factory   string
	numReduce int
	params    *paramStream
	inFlight  int
	warmup    int
	window    time.Duration

	// cpu samples the cluster's cumulative CPU time; onWarm fires when the
	// measured window opens, on the poller's goroutine. Both may be nil.
	cpu    func() (cpuSample, error)
	onWarm func() error
}

type outstanding struct {
	id    int
	slot  int
	param string
	sent  time.Time
}

// completion is one measured job: which of the loop's W slots carried it,
// when its POST was sent and when the poller first saw it done.
type completion struct {
	slot     int
	sent, at time.Time
}

// cpuPoint is the cluster's cumulative CPU time at one instant of the
// measured window.
type cpuPoint struct {
	at time.Time
	cpuSample
}

// cpuEvery is how often the poller samples the cluster's CPU time inside
// the window: /proc counts in 10 ms ticks, so shorter steps would be noise,
// and the host's speed, by which each step is weighed, changes within a
// second.
const cpuEvery = 250 * time.Millisecond

// loadResult is what one run of the loop observed. Everything but
// warmAt covers the measured window only.
type loadResult struct {
	warmAt time.Time // the sweep that saw the last warm-up completion
	endAt  time.Time // when the window closed

	done     []completion
	failed   int
	submitMs []float64 // POST round trips
	polls    int
	// orderViolations counts jobs whose doneAt precedes that of a job
	// admitted before them, over the whole run.
	orderViolations int

	cpu []cpuPoint // from warmAt to endAt, a point every cpuEvery
	// firstOf is the first measured job of each parameter, for the
	// output check.
	firstOf map[string]int
}

// seconds is the window's length on the host-speed clock.
func (r loadResult) seconds(clk *hostClock) float64 { return clk.between(r.warmAt, r.endAt) }

// latencies are POST sent to seen done, on the host-speed clock.
func (r loadResult) latencies(clk *hostClock) []float64 {
	out := make([]float64, len(r.done))
	for i, c := range r.done {
		out[i] = clk.between(c.sent, c.at)
	}
	return out
}

// cpuMs is the CPU time the master and the workers used in the window,
// each step between two samples scaled like the wall time it spans: CPU
// time inflates with the host's slowness exactly as wall time does.
func (r loadResult) cpuMs(clk *hostClock) (master, workers float64) {
	for i := 1; i < len(r.cpu); i++ {
		a, b := r.cpu[i-1], r.cpu[i]
		scale := ratio(clk.between(a.at, b.at), b.at.Sub(a.at).Seconds())
		master += (b.master - a.master) * scale
		workers += (b.workers - a.workers) * scale
	}
	return master, workers
}

// slotRate is the loop's throughput in jobs per second of the host-speed
// clock, measured slot by slot. A slot holds one job at a time and posts
// the next the moment the poller sees the last one done, so between a
// slot's first and last measured completion it finished exactly n-1 jobs: a
// count over a time whose both ends are completions of that slot. Counting
// all completions over the whole window instead would depend on how many of
// the W jobs, which tend to finish together, fall just inside its edges.
func slotRate(done []completion, slots int, clk *hostClock) float64 {
	first := make([]time.Time, slots)
	last := make([]time.Time, slots)
	n := make([]int, slots)
	for _, c := range done {
		if n[c.slot] == 0 {
			first[c.slot] = c.at
		}
		last[c.slot] = c.at
		n[c.slot]++
	}
	var rate float64
	for i := range n {
		if n[i] >= 2 {
			rate += float64(n[i]-1) / clk.between(first[i], last[i])
		}
	}
	return rate
}

// sampleCPU appends the cluster's CPU time at instant at; a loader without
// a cpu source records zeros, so that the trace still spans the window.
func (r *loadResult) sampleCPU(cpu func() (cpuSample, error), at time.Time) error {
	var s cpuSample
	if cpu != nil {
		var err error
		if s, err = cpu(); err != nil {
			return err
		}
	}
	r.cpu = append(r.cpu, cpuPoint{at: at, cpuSample: s})
	return nil
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

type jobStatus struct {
	State  string  `json:"state"`
	DoneAt float64 `json:"doneAt"`
}

func (l *loader) run(ctx context.Context) (loadResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	poster, poller := oneConnClient(), oneConnClient()
	defer poster.CloseIdleConnections()
	defer poller.CloseIdleConnections()

	var (
		mu        sync.Mutex
		fifo      []outstanding
		measuring bool
		res       = loadResult{firstOf: make(map[string]int)}
		postErr   error
	)
	slots := make(chan int, l.inFlight) // the slots free to carry a new job
	for i := 0; i < l.inFlight; i++ {
		slots <- i
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			var slot int
			select {
			case <-ctx.Done():
				return
			case slot = <-slots:
			}
			param := l.params.draw()
			sent := time.Now()
			id, err := l.post(ctx, poster, param)
			rtt := time.Since(sent)
			if ctx.Err() != nil {
				return
			}
			mu.Lock()
			if err != nil {
				res.failed++
				if !measuring || res.failed > maxFailures {
					postErr = err
					mu.Unlock()
					cancel()
					return
				}
				mu.Unlock()
				slots <- slot
				continue
			}
			fifo = append(fifo, outstanding{id: id, slot: slot, param: param, sent: sent})
			if measuring {
				res.submitMs = append(res.submitMs, rtt.Seconds()*1000)
			}
			mu.Unlock()
		}
	}()
	// Every return below first stops the submitter and waits for it.
	stop := func() {
		cancel()
		wg.Wait()
	}
	defer stop()

	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	var (
		warmDone   int
		lastDoneAt float64
	)
	for {
		select {
		case <-ctx.Done():
			stop() // postErr is the submitter's to write until it has exited
			mu.Lock()
			defer mu.Unlock()
			if postErr != nil {
				return res, postErr
			}
			return res, ctx.Err()
		case <-tick.C:
		}
		sawDone := false
		var now time.Time
		for {
			mu.Lock()
			if len(fifo) == 0 {
				mu.Unlock()
				break
			}
			head := fifo[0]
			mu.Unlock()
			st, err := l.status(ctx, poller, head.id)
			if err != nil {
				return res, err
			}
			now = time.Now()
			if measuring {
				res.polls++
			}
			settled, ok := false, false
			switch {
			case st.State == "done":
				settled, ok = true, true
			case st.State == "failed", now.Sub(head.sent) > jobTimeout:
				settled = true
			}
			if !settled {
				break
			}
			mu.Lock()
			fifo = fifo[1:]
			switch {
			case !ok:
				res.failed++
			case !measuring:
				warmDone++
			default:
				res.done = append(res.done, completion{slot: head.slot, sent: head.sent, at: now})
				if _, seen := res.firstOf[head.param]; !seen {
					res.firstOf[head.param] = head.id
				}
			}
			failed := res.failed
			mu.Unlock()
			if ok {
				sawDone = true
				if st.DoneAt < lastDoneAt {
					res.orderViolations++
				} else {
					lastDoneAt = st.DoneAt
				}
			} else if !measuring || failed > maxFailures {
				return res, fmt.Errorf("job %d ended %q after %v", head.id, st.State, now.Sub(head.sent))
			}
			slots <- head.slot
		}
		if measuring && time.Since(res.cpu[len(res.cpu)-1].at) >= cpuEvery {
			if err := res.sampleCPU(l.cpu, time.Now()); err != nil {
				return res, err
			}
		}
		if !measuring && sawDone && warmDone >= l.warmup {
			res.warmAt = now
			if err := res.sampleCPU(l.cpu, now); err != nil {
				return res, err
			}
			if l.onWarm != nil {
				if err := l.onWarm(); err != nil {
					return res, err
				}
			}
			mu.Lock()
			measuring = true
			mu.Unlock()
		}
		if measuring && time.Since(res.warmAt) >= l.window {
			res.endAt = time.Now()
			if err := res.sampleCPU(l.cpu, res.endAt); err != nil {
				return res, err
			}
			stop() // the submitter writes to res until it has exited
			if len(res.done) == 0 {
				return res, fmt.Errorf("no job completed in the %v window", l.window)
			}
			return res, nil
		}
	}
}

func (l *loader) post(ctx context.Context, c *http.Client, param string) (int, error) {
	body, err := json.Marshal(map[string]any{"factory": l.factory, "param": param, "numReduce": l.numReduce})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, fmt.Errorf("POST /jobs: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("POST /jobs: reading reply: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /jobs: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var reply struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return 0, fmt.Errorf("POST /jobs: decoding reply %q: %w", raw, err)
	}
	return reply.ID, nil
}

func (l *loader) status(ctx context.Context, c *http.Client, id int) (jobStatus, error) {
	var st jobStatus
	err := getJSON(ctx, c, fmt.Sprintf("%s/jobs/%d", l.base, id), &st)
	return st, err
}

// getJSON fetches url and decodes the body into out, reading the body to
// its end so the keep-alive connection is reused.
func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	raw, err := getBody(ctx, c, url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("GET %s: decoding: %w", url, err)
	}
	return nil
}

func getBody(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: reading body: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}
