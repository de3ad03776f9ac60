package status

import (
	"encoding/json"
	"net/http"
	"sync"

	"s3sched/internal/comms"
)

// ClusterSource provides a point-in-time view of cluster membership.
// The remote master implements it; the status server polls it on each
// GET /cluster, so the endpoint always reflects the live table rather
// than a hook-time snapshot; GET /metrics reads its s3_cache_*,
// s3_shuffle_* and s3_result_* off the same table, and what only the
// master counts: map tasks re-run at reduce time, reduce tasks retried;
// lost outputs reduced again, and with other receipts than committed.
type ClusterSource interface {
	ClusterSnapshot() []comms.WorkerInfo
	ShuffleRepairs() (maps, retries int64)
	ResultRecomputes() (recomputes, mismatches int64)
}

// clusterView is the GET /cluster response body.
type clusterView struct {
	// Live counts joined + suspect workers — the set receiving tasks.
	Live int `json:"live"`
	// Workers is the full membership table, dead members included (a
	// dead entry is a restart waiting to happen, and its task counters
	// survive the outage).
	Workers []comms.WorkerInfo `json:"workers"`
	// Recovery repeats the published journal-recovery summary, so a
	// cluster observer sees restart history next to membership.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// clusterState holds the server's membership source behind its own
// lock so SetCluster is safe against concurrent /cluster requests.
type clusterState struct {
	mu  sync.RWMutex
	src ClusterSource
}

func (c *clusterState) get() ClusterSource {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.src
}

// SetCluster exposes src's membership table at GET /cluster. Call
// before Serve; nil removes the endpoint.
func (s *Server) SetCluster(src ClusterSource) {
	s.cluster.mu.Lock()
	defer s.cluster.mu.Unlock()
	s.cluster.src = src
}

// handleCluster serves GET /cluster.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	src := s.cluster.get()
	if src == nil {
		http.Error(w, "no cluster membership configured", http.StatusNotFound)
		return
	}
	workers := src.ClusterSnapshot()
	view := clusterView{Workers: workers, Recovery: s.Snapshot().Recovery}
	for _, wi := range workers {
		if wi.State != comms.Dead.String() {
			view.Live++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(view); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
