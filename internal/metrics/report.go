package metrics

import (
	"fmt"
	"sort"

	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Per-job audit reporting: the job-history view a production scheduler
// keeps. Each row decomposes a job's lifetime the way §III-B does —
// submission, waiting, processing, completion.

// JobRow is one job's audit record.
type JobRow struct {
	ID          scheduler.JobID
	SubmittedAt vclock.Time
	StartedAt   vclock.Time
	CompletedAt vclock.Time
	Waiting     vclock.Duration
	Processing  vclock.Duration
	Response    vclock.Duration
}

// JobTable returns one row per job in submission order. It fails if
// any job is incomplete or lacks a recorded start.
func (c *Collector) JobTable() ([]JobRow, error) {
	if len(c.order) == 0 {
		return nil, fmt.Errorf("metrics: no jobs recorded")
	}
	rows := make([]JobRow, 0, len(c.order))
	for _, id := range c.order {
		w, err := c.WaitingTime(id)
		if err != nil {
			return nil, err
		}
		p, err := c.ProcessingTime(id)
		if err != nil {
			return nil, err
		}
		rt, err := c.ResponseTime(id)
		if err != nil {
			return nil, err
		}
		rows = append(rows, JobRow{
			ID:          id,
			SubmittedAt: c.submitted[id],
			StartedAt:   c.started[id],
			CompletedAt: c.completed[id],
			Waiting:     w,
			Processing:  p,
			Response:    rt,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	return rows, nil
}
