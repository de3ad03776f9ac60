package status

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3sched/internal/mapreduce"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
)

// fakeAdmission is a scripted Admission backend.
type fakeAdmission struct {
	nextID scheduler.JobID
	jobs   []runtime.JobStatus
	reject string
}

func (f *fakeAdmission) SubmitJob(req JobRequest) (scheduler.JobID, error) {
	if f.reject != "" {
		return 0, fmt.Errorf("%s", f.reject)
	}
	f.nextID++
	name := req.Name
	if name == "" {
		name = req.Factory
	}
	st := runtime.JobStatus{ID: f.nextID, Name: name, State: runtime.JobQueued, DependsOn: req.DependsOn}
	if len(req.DependsOn) > 0 {
		st.State = runtime.JobWaiting
	}
	f.jobs = append(f.jobs, st)
	return f.nextID, nil
}

func (f *fakeAdmission) JobStatus(id scheduler.JobID) (runtime.JobStatus, bool) {
	for _, j := range f.jobs {
		if j.ID == id {
			return j, true
		}
	}
	return runtime.JobStatus{}, false
}

func (f *fakeAdmission) Jobs() []runtime.JobStatus { return f.jobs }

func adminServer(t *testing.T, adm Admission) *httptest.Server {
	t.Helper()
	srv := NewServer("s3")
	if adm != nil {
		srv.SetAdmission(adm)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestJobsEndpointsWithoutAdmission(t *testing.T) {
	ts := adminServer(t, nil)
	for _, path := range []string{"/jobs", "/jobs/1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without admission = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestSubmitAndQueryJobs(t *testing.T) {
	adm := &fakeAdmission{}
	ts := adminServer(t, adm)

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"factory":"wordcount","param":"th"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID != 1 || sub.State != "queued" {
		t.Fatalf("POST /jobs = %d %+v, want 202 id=1 queued", resp.StatusCode, sub)
	}

	// The reply carries the state the backend recorded: a stage held on
	// its dependency is waiting, as GET /jobs/2 says, not queued.
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"factory":"topk","param":"3","dependsOn":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if held, _ := adm.JobStatus(2); sub.ID != 2 || sub.State != "waiting" || held.State != runtime.JobWaiting {
		t.Fatalf("POST /jobs with dependsOn = %+v, GET says %q: want id=2 waiting on both", sub, held.State)
	}

	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []runtime.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].Name != "wordcount" || list[1].State != runtime.JobWaiting {
		t.Fatalf("GET /jobs = %+v, want the wordcount job and the waiting topk", list)
	}

	resp, err = http.Get(ts.URL + "/jobs/1")
	if err != nil {
		t.Fatal(err)
	}
	var one runtime.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if one.ID != 1 || one.State != runtime.JobQueued {
		t.Fatalf("GET /jobs/1 = %+v", one)
	}
}

func TestSubmitErrors(t *testing.T) {
	adm := &fakeAdmission{}
	ts := adminServer(t, adm)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		reject string
		want   int
	}{
		{"bad JSON", http.MethodPost, "/jobs", "{not json", "", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/jobs", `{"factory":"topk","param":"3","depends_on":[1]}`, "", http.StatusBadRequest},
		{"trailing data", http.MethodPost, "/jobs", `{"factory":"wordcount"}}`, "", http.StatusBadRequest},
		{"second job", http.MethodPost, "/jobs", `{"factory":"wordcount"} {"factory":"wordcount"}`, "", http.StatusBadRequest},
		{"backend rejects", http.MethodPost, "/jobs", `{"factory":"bogus"}`, "unknown job factory", http.StatusBadRequest},
		{"unknown id", http.MethodGet, "/jobs/99", "", "", http.StatusNotFound},
		{"garbage id", http.MethodGet, "/jobs/banana", "", "", http.StatusBadRequest},
		{"delete list", http.MethodDelete, "/jobs", "", "", http.StatusMethodNotAllowed},
		{"post by id", http.MethodPost, "/jobs/1", "{}", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		adm.reject = tc.reject
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// A body past maxJobBody is refused with 413 before it is decoded whole,
// and admits nothing; one just under it is read to its end.
func TestSubmitBodyTooLarge(t *testing.T) {
	adm := &fakeAdmission{}
	ts := adminServer(t, adm)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	huge := `{"factory":"wordcount","name":"` + strings.Repeat("a", 2<<20) + `"}`
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB name: status = %d, want 413", code)
	}
	padded := `{"factory":"wordcount"}` + strings.Repeat(" ", 2<<20)
	if code := post(padded); code != http.StatusRequestEntityTooLarge {
		t.Errorf("a job and 2 MiB of blanks: status = %d, want 413", code)
	}
	if len(adm.jobs) != 0 {
		t.Fatalf("an oversized body admitted %d jobs", len(adm.jobs))
	}
	fits := `{"factory":"wordcount","name":"` + strings.Repeat("a", maxJobBody-64) + `"}`
	if code := post(fits); code != http.StatusAccepted || len(adm.jobs) != 1 {
		t.Errorf("a body under the bound: status = %d with %d jobs, want 202 and 1", code, len(adm.jobs))
	}
}

// fakeResults answers JobOutput from a script.
type fakeResults map[scheduler.JobID]error

func (f fakeResults) JobOutput(id scheduler.JobID) ([]mapreduce.KV, error) {
	if err, ok := f[id]; ok {
		return nil, err
	}
	return []mapreduce.KV{{Key: "k", Value: "1"}}, nil
}

// GET /jobs/<id>/output says why it has nothing: 404 only for a job that
// is unknown or not finished, 503 with Retry-After when the output exists
// but nobody can serve or recompute it right now, 500 for everything that
// a retry will not cure — each with the source's own words.
func TestJobOutputStatusCodes(t *testing.T) {
	adm := &fakeAdmission{}
	for i := 0; i < 5; i++ {
		if _, err := adm.SubmitJob(JobRequest{Factory: "wordcount"}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer("s3")
	srv.SetAdmission(adm)
	srv.SetResults(fakeResults{
		2: fmt.Errorf("%w: job 2", ErrNoOutput),
		3: fmt.Errorf("%w: %w", ErrOutputUnavailable, errors.New("job \"sel\" failed on every worker: no live workers")),
		4: errors.New("job 4 partition 0: recomputed as 3 records; committed as 4"),
		5: errors.New(`unknown job factory "gone"`),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct {
		id         int
		code       int
		retryAfter string
		body       string
	}{
		{1, http.StatusOK, "", `[{"Key":"k","Value":"1"}]`},
		{2, http.StatusNotFound, "", "job has no output (not complete?): job 2"},
		{3, http.StatusServiceUnavailable, "1", "no live workers"},
		{4, http.StatusInternalServerError, "", "committed as 4"},
		{5, http.StatusInternalServerError, "", "unknown job factory"},
		{6, http.StatusNotFound, "", "unknown job"},
	} {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/output", ts.URL, c.id))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code || resp.Header.Get("Retry-After") != c.retryAfter || !strings.Contains(string(body), c.body) {
			t.Errorf("job %d: %d, Retry-After %q, %q; want %d, %q and %q in the body", c.id, resp.StatusCode, resp.Header.Get("Retry-After"), body, c.code, c.retryAfter, c.body)
		}
	}
}
