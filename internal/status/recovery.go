package status

import (
	"errors"
	"sync"

	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
)

// RecoveryInfo summarizes the most recent journal recovery — published
// once at boot by a master that found a non-empty write-ahead journal,
// and absent otherwise.
type RecoveryInfo struct {
	// Recoveries counts recoveries over the journal's lifetime,
	// including this one.
	Recoveries int `json:"recoveries"`
	// JobsResumed were restored mid-pass from the latest scheduler
	// snapshot; JobsRestarted were admitted-but-unsnapshotted jobs
	// resubmitted from scratch under their original ids.
	JobsResumed   int `json:"jobsResumed"`
	JobsRestarted int `json:"jobsRestarted"`
	// JournalPath is the replayed journal file.
	JournalPath string `json:"journalPath,omitempty"`
}

// SetRecovery publishes a completed journal recovery (dashboard row,
// /status.json, and GET /cluster).
func (s *Server) SetRecovery(info RecoveryInfo) {
	s.Update(func(st *State) { st.Recovery = &info })
}

// ResultSource serves completed jobs' merged outputs. The remote
// master implements it; the endpoint polls it live so restored results
// are visible immediately after recovery. Reading one may mean fetching
// or recomputing it: the error says how GET /jobs/<id>/output answers, 404
// for ErrNoOutput, 503 for ErrOutputUnavailable, 500 for anything else.
type ResultSource interface {
	JobOutput(id scheduler.JobID) ([]mapreduce.KV, error)
}

var (
	// ErrNoOutput: the job is unknown or has not finished.
	ErrNoOutput = errors.New("job has no output (not complete?)")
	// ErrOutputUnavailable: no live worker can serve or recompute it now.
	ErrOutputUnavailable = errors.New("job output unavailable")
)

// resultState holds the server's result source behind its own lock.
type resultState struct {
	mu  sync.RWMutex
	src ResultSource
}

func (r *resultState) get() ResultSource {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.src
}

// SetResults exposes completed jobs' outputs at GET /jobs/<id>/output.
// Call before Serve; nil removes the endpoint.
func (s *Server) SetResults(src ResultSource) {
	s.results.mu.Lock()
	defer s.results.mu.Unlock()
	s.results.src = src
}
