package remote

import (
	"errors"
	"fmt"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

// Local is a master and its workers in one process. The workers
// register through the master's control plane on loopback as
// s3cluster's do: they answer heartbeats, show in ClusterSnapshot and
// advertise their map slots. It is how a scheduler runs over real bytes without
// deploying processes — the benchmark's engine cells, Figure 3, the
// examples and the demos.
type Local struct {
	*Master
	Workers []*Worker
}

// StartLocal boots a master with jobs registered and one worker on each
// store, every worker serving reg's factories. Workers join one at a
// time, so while all of them live block i of a round is mapped on
// Workers[i mod len(stores)]. It returns once every worker is live.
func StartLocal(jobs map[scheduler.JobID]JobRef, reg *Registry, stores ...*dfs.Store) (*Local, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("remote: a local cluster needs at least one worker")
	}
	l := &Local{Master: NewMaster(jobs)}
	ctl, err := l.ListenControl("127.0.0.1:0", ControlConfig{})
	if err != nil {
		return nil, errors.Join(err, l.Close())
	}
	for i, store := range stores {
		w := NewWorker(store, reg)
		l.Workers = append(l.Workers, w)
		if _, err = w.Serve("127.0.0.1:0"); err == nil {
			err = w.Register(ctl, RegisterOptions{ID: fmt.Sprintf("local-%d", i)})
		}
		if err == nil {
			err = l.WaitForWorkers(i+1, time.Minute)
		}
		if err != nil {
			return nil, errors.Join(err, l.Close())
		}
	}
	return l, nil
}

// Close stops every worker, then the master.
func (l *Local) Close() error {
	for _, w := range l.Workers {
		w.Close()
	}
	return l.Master.Close()
}
