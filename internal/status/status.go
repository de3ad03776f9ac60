// Package status exposes a run's live state over HTTP — the
// observability layer a production scheduler deployment needs. The
// driver's hooks publish state snapshots into a Server; the server
// renders them as JSON (/status.json) and a minimal HTML dashboard (/).
//
// Publication is push-based: the single-threaded driver loop owns the
// scheduler, so HTTP handlers never touch scheduler internals — they
// read an atomically swapped snapshot.
package status

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"s3sched/internal/comms"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// RoundInfo describes the most recent round.
type RoundInfo struct {
	Segment   int   `json:"segment"`
	Blocks    int   `json:"blocks"`
	BatchSize int   `json:"batchSize"`
	Jobs      []int `json:"jobs"`
	Completed []int `json:"completed"`
}

// CacheInfo summarizes block-cache effectiveness for the dashboard.
type CacheInfo struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hitRatio"`
}

// State is the published run snapshot.
type State struct {
	Scheme      string        `json:"scheme"`
	VirtualTime float64       `json:"virtualTime"`
	Rounds      int           `json:"rounds"`
	PendingJobs int           `json:"pendingJobs"`
	DoneJobs    int           `json:"doneJobs"`
	LastRound   *RoundInfo    `json:"lastRound,omitempty"`
	RunComplete bool          `json:"runComplete"`
	TETSeconds  float64       `json:"tetSeconds,omitempty"`
	ARTSeconds  float64       `json:"artSeconds,omitempty"`
	Cache       *CacheInfo    `json:"cache,omitempty"`
	Recovery    *RecoveryInfo `json:"recovery,omitempty"`
}

// SetCache publishes block-cache counters (shown as a dashboard row).
func (s *Server) SetCache(cs dfs.CacheStats) {
	s.Update(func(st *State) {
		st.Cache = &CacheInfo{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			HitRatio:  cs.HitRatio(),
		}
	})
}

// Server publishes State over HTTP.
type Server struct {
	mu    sync.RWMutex
	state State
	ln    net.Listener
	// reg, when set, is rendered at /metrics in Prometheus text
	// exposition format; rm holds its run instruments, which a scrape
	// fills from the cluster's table.
	reg *metrics.Registry
	rm  *metrics.RunMetrics
	// adm, when set, backs the live job-submission endpoints under
	// /jobs (see admission.go).
	adm Admission
	// cluster, when set, backs GET /cluster (see cluster.go).
	cluster clusterState
	// results, when set, backs GET /jobs/<id>/output (see recovery.go).
	results resultState
}

// NewServer returns an empty status server.
func NewServer(scheme string) *Server {
	return &Server{state: State{Scheme: scheme}}
}

// SetRegistry exposes reg's metrics at /metrics (Prometheus text
// format). Call before Serve; nil removes the endpoint.
func (s *Server) SetRegistry(reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg, s.rm = reg, nil
	if reg != nil {
		s.rm = metrics.NewRunMetrics(reg)
	}
}

// Update applies f to the published state under the server's lock.
func (s *Server) Update(f func(*State)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.state)
}

// Snapshot returns a copy of the current state.
func (s *Server) Snapshot() State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.state
	if st.LastRound != nil {
		lr := *st.LastRound
		st.LastRound = &lr
	}
	if st.Recovery != nil {
		rc := *st.Recovery
		st.Recovery = &rc
	}
	return st
}

// Hooks returns run-loop hooks that publish round progress into the
// server.
func (s *Server) Hooks(sched scheduler.Scheduler) runtime.Hooks {
	return runtime.Hooks{
		OnRoundDone: func(r scheduler.Round, now vclock.Time, completed []scheduler.JobID) {
			s.Update(func(st *State) {
				st.Rounds++
				st.VirtualTime = float64(now)
				st.PendingJobs = sched.PendingJobs()
				st.DoneJobs += len(completed)
				info := &RoundInfo{
					Segment:   r.Segment,
					Blocks:    len(r.Blocks),
					BatchSize: len(r.Jobs),
				}
				for _, id := range r.JobIDs() {
					info.Jobs = append(info.Jobs, int(id))
				}
				for _, id := range completed {
					info.Completed = append(info.Completed, int(id))
				}
				st.LastRound = info
			})
		},
	}
}

var dashboard = template.Must(template.New("dash").Funcs(template.FuncMap{
	"mulf": func(a, b float64) float64 { return a * b },
}).Parse(`<!DOCTYPE html>
<html><head><title>s3sched status</title></head><body>
<h1>s3sched — {{.Scheme}}</h1>
<table border="1" cellpadding="4">
<tr><td>run clock</td><td>{{printf "%.3f" .VirtualTime}}s</td></tr>
<tr><td>rounds</td><td>{{.Rounds}}</td></tr>
<tr><td>pending jobs</td><td>{{.PendingJobs}}</td></tr>
<tr><td>completed jobs</td><td>{{.DoneJobs}}</td></tr>
<tr><td>run complete</td><td>{{.RunComplete}}</td></tr>
{{if .LastRound}}<tr><td>last round</td><td>segment {{.LastRound.Segment}},
batch {{.LastRound.BatchSize}}, blocks {{.LastRound.Blocks}}</td></tr>{{end}}
{{if .TETSeconds}}<tr><td>TET</td><td>{{printf "%.3f" .TETSeconds}}s</td></tr>{{end}}
{{if .ARTSeconds}}<tr><td>ART</td><td>{{printf "%.3f" .ARTSeconds}}s</td></tr>{{end}}
{{if .Cache}}<tr><td>block cache</td><td>{{.Cache.Hits}} hits / {{.Cache.Misses}} misses
({{printf "%.1f" (mulf .Cache.HitRatio 100)}}% hit ratio), {{.Cache.Evictions}} evictions</td></tr>{{end}}
{{if .Recovery}}<tr><td>journal recovery</td><td>recovery #{{.Recovery.Recoveries}}:
{{.Recovery.JobsResumed}} job(s) resumed, {{.Recovery.JobsRestarted}} restarted
{{if .Recovery.JournalPath}}from {{.Recovery.JournalPath}}{{end}}</td></tr>{{end}}
</table>
<p><a href="/status.json">status.json</a></p>
</body></html>`))

// Handler returns the HTTP handler serving / and /status.json, plus
// /metrics when a registry is set, the live job-submission API under
// /jobs when an admission backend is set, and the Go profiler under
// /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		reg, rm := s.reg, s.rm
		s.mu.RUnlock()
		if reg == nil {
			http.Error(w, "no metrics registry configured", http.StatusNotFound)
			return
		}
		if src := s.cluster.get(); src != nil {
			// A daemon's run never ends to fold its s3_cache_*: read them
			// off the heartbeat ledgers, one heartbeat old at most, and
			// the membership metrics off the table that counts them.
			var cache dfs.CacheStats
			var stashed, fetched, held, evicted, served, tasks, passes, live, misses, reconnects int64
			for _, wi := range src.ClusterSnapshot() {
				cache.Add(wi.Tasks.Cache())
				stashed, fetched = stashed+wi.Tasks.StashBytes, fetched+wi.Tasks.ShuffleFetchedBytes
				held, evicted, served = held+wi.Tasks.ResultBytes, evicted+wi.Tasks.ResultEvictions, served+wi.Tasks.ResultServedBytes
				tasks, passes = tasks+wi.Tasks.MapTasks, passes+wi.Tasks.MapPasses
				if wi.State != comms.Dead.String() {
					live++
				}
				misses, reconnects = misses+wi.HeartbeatMisses, reconnects+wi.Reconnects
			}
			rm.WorkersConnected.Set(float64(live))
			rm.HeartbeatMisses.RaiseTo(float64(misses))
			rm.WorkerReconnects.RaiseTo(float64(reconnects))
			rm.SetCacheStats(cache)
			rm.MapTasks.RaiseTo(float64(tasks))
			rm.MapPasses.RaiseTo(float64(passes))
			repairs, _ := src.ShuffleRepairs()
			rm.SetShuffleStats(stashed, fetched, repairs)
			recomputes, mismatches := src.ResultRecomputes()
			rm.SetResultStats(held, evicted, served, recomputes, mismatches)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// net/http/pprof registers on http.DefaultServeMux; wire its
	// handlers into this mux explicitly so the server stays
	// self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJobByID)
	mux.HandleFunc("/status.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := dashboard.Execute(w, s.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// Serve starts the HTTP server on addr ("127.0.0.1:0" for ephemeral)
// and returns the bound address. It serves until Close.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		// http.Serve returns when the listener closes.
		_ = http.Serve(ln, s.Handler())
	}()
	return ln.Addr().String(), nil
}

// Close stops the HTTP listener.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	err := s.ln.Close()
	s.ln = nil
	if err != nil {
		return fmt.Errorf("status: closing listener: %w", err)
	}
	return nil
}
