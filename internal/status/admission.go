package status

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
)

// JobRequest is the wire form of a live job submission (POST /jobs).
type JobRequest struct {
	// Name labels the job in traces and status output.
	Name string `json:"name"`
	// Factory names the job's program in the job catalog
	// (workload.Catalog); Param configures it.
	Factory string `json:"factory"`
	Param   string `json:"param,omitempty"`
	// NumReduce is the job's reduce-partition count, 0 for the
	// backend's default.
	NumReduce int `json:"numReduce,omitempty"`
	// Weight and Priority feed the scheduler's JobMeta verbatim.
	Weight   float64 `json:"weight,omitempty"`
	Priority int     `json:"priority,omitempty"`
	// DependsOn names already-submitted jobs this one must wait for.
	// The job's input is the first dependency's materialized reduce
	// output; it is held in "waiting" state until every dependency
	// completes, then joins the live pass.
	DependsOn []scheduler.JobID `json:"dependsOn,omitempty"`
}

// Admission is the backend behind the live job-submission endpoints.
// Implementations validate the request, register the job's program
// with the execution layer, and enqueue it on a runtime arrival source
// — all while a pass may be in flight, so every method must be safe
// for concurrent use with the run loop.
type Admission interface {
	// SubmitJob accepts a job for scheduling and returns its id.
	SubmitJob(req JobRequest) (scheduler.JobID, error)
	// JobStatus reports one job's lifecycle state.
	JobStatus(id scheduler.JobID) (runtime.JobStatus, bool)
	// Jobs lists all live-submitted jobs in submission order.
	Jobs() []runtime.JobStatus
}

// SetAdmission enables the /jobs endpoints backed by adm. Call before
// Serve; nil disables the endpoints (requests get 404).
func (s *Server) SetAdmission(adm Admission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adm = adm
}

func (s *Server) admission() Admission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.adm
}

// maxJobBody bounds a POST /jobs body: a job request is a few hundred
// bytes, and a larger body is refused (413) before it is buffered.
const maxJobBody = 1 << 20

// submitReply is the POST /jobs response body.
type submitReply struct {
	ID    int    `json:"id"`
	State string `json:"state"`
}

// handleJobs serves POST /jobs (submit) and GET /jobs (list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	adm := s.admission()
	if adm == nil {
		http.Error(w, "no job admission configured", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodPost:
		// Strict, as workload files are: a typo'd field must not submit a
		// different job.
		var req JobRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
		dec.DisallowUnknownFields()
		var tooBig *http.MaxBytesError
		err := dec.Decode(&req)
		if err == nil {
			if err = dec.Decode(&struct{}{}); err == io.EOF {
				err = nil
			} else if !errors.As(err, &tooBig) {
				err = errors.New("trailing data after the job")
			}
		}
		switch {
		case errors.As(err, &tooBig):
			http.Error(w, fmt.Sprintf("request body over %d bytes", maxJobBody), http.StatusRequestEntityTooLarge)
			return
		case err != nil:
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		id, err := adm.SubmitJob(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The state the backend recorded, not a guess: a stage held on
		// its dependencies is "waiting", as GET /jobs/<id> will say.
		st, _ := adm.JobStatus(id)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(submitReply{ID: int(id), State: string(st.State)})
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		jobs := adm.Jobs()
		if jobs == nil {
			jobs = []runtime.JobStatus{}
		}
		_ = enc.Encode(jobs)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleJobByID serves GET /jobs/<id> and GET /jobs/<id>/output.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	adm := s.admission()
	if adm == nil {
		http.Error(w, "no job admission configured", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/jobs/")
	rawID, sub, _ := strings.Cut(raw, "/")
	id, err := strconv.Atoi(rawID)
	if err != nil {
		http.Error(w, "bad job id "+strconv.Quote(rawID), http.StatusBadRequest)
		return
	}
	st, ok := adm.JobStatus(scheduler.JobID(id))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	switch sub {
	case "":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	case "output":
		src := s.results.get()
		if src == nil {
			http.Error(w, "no result source configured", http.StatusNotFound)
			return
		}
		out, err := src.JobOutput(scheduler.JobID(id))
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, ErrNoOutput) {
				code = http.StatusNotFound
			} else if errors.Is(err, ErrOutputUnavailable) {
				code = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	default:
		http.NotFound(w, r)
	}
}
