package runtime_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// dagCase is one random DAG over ids 1..n, edges from lower to higher
// ids, with the producers whose output cannot become a file.
type dagCase struct {
	stages   []runtime.Stage
	matFails map[scheduler.JobID]bool
}

func randomDAG(rng *rand.Rand) dagCase {
	n := 1 + rng.Intn(12)
	c := dagCase{matFails: map[scheduler.JobID]bool{}}
	for i := 1; i <= n; i++ {
		st := runtime.Stage{Job: scheduler.JobMeta{ID: scheduler.JobID(i), Name: fmt.Sprint("s", i)}, At: vclock.Time(rng.Intn(4))}
		for d := 1; d < i; d++ {
			if rng.Intn(4) == 0 {
				st.DependsOn = append(st.DependsOn, scheduler.JobID(d))
			}
		}
		rng.Shuffle(len(st.DependsOn), func(a, b int) { st.DependsOn[a], st.DependsOn[b] = st.DependsOn[b], st.DependsOn[a] })
		c.stages = append(c.stages, st)
		c.matFails[st.Job.ID] = rng.Intn(4) == 0
	}
	return c
}

// want is the oracle: a stage is released exactly when every producer
// was released and had its output made a file.
func (c dagCase) want() (released, failed []scheduler.JobID) {
	ok := map[scheduler.JobID]bool{}
	for _, st := range c.stages { // ids ascend, so producers come first
		ok[st.Job.ID] = true
		for _, dep := range st.DependsOn {
			if !ok[dep] || c.matFails[dep] {
				ok[st.Job.ID] = false
			}
		}
		if ok[st.Job.ID] {
			released = append(released, st.Job.ID)
		} else {
			failed = append(failed, st.Job.ID)
		}
	}
	return released, failed
}

// run is the bookkeeping a LiveSource is driven under: what the engine
// would see, and the invariants checked as it sees it.
type run struct {
	t        *testing.T
	c        dagCase
	deps     map[scheduler.JobID][]scheduler.JobID
	running  []scheduler.JobID
	released map[scheduler.JobID]bool
	finished map[scheduler.JobID]bool
	matCalls map[scheduler.JobID]int
}

func newRun(t *testing.T, c dagCase) *run {
	r := &run{t: t, c: c, deps: map[scheduler.JobID][]scheduler.JobID{}, released: map[scheduler.JobID]bool{}, finished: map[scheduler.JobID]bool{}, matCalls: map[scheduler.JobID]int{}}
	for _, st := range c.stages {
		r.deps[st.Job.ID] = st.DependsOn
	}
	return r
}

func (r *run) mat(id scheduler.JobID, _ vclock.Time) (vclock.Duration, error) {
	if r.matCalls[id]++; r.matCalls[id] > 1 {
		r.t.Errorf("stage %d materialized %d times", id, r.matCalls[id])
	}
	if !r.finished[id] {
		r.t.Errorf("stage %d materialized before it finished", id)
	}
	if r.c.matFails[id] {
		return 0, errors.New("injected")
	}
	return vclock.Duration(1), nil
}

// deliver records what a Pop handed the engine, which admits it.
func (r *run) deliver(src *runtime.LiveSource, arrivals []runtime.Arrival) {
	for _, a := range arrivals {
		id := a.Job.ID
		if err := src.JobAdmitted(id, a.At); err != nil {
			r.t.Error(err)
		}
		if r.released[id] {
			r.t.Errorf("stage %d released twice", id)
		}
		for _, dep := range r.deps[id] {
			if !r.finished[dep] || r.matCalls[dep] != 1 || r.c.matFails[dep] {
				r.t.Errorf("stage %d released before producer %d finished and became a file", id, dep)
			}
		}
		r.released[id] = true
		r.running = append(r.running, id)
	}
}

// finishOne has the engine finish a random running stage.
func (r *run) finishOne(rng *rand.Rand, src *runtime.LiveSource, now vclock.Time) {
	k := rng.Intn(len(r.running))
	id := r.running[k]
	r.running = slices.Delete(r.running, k, k+1)
	r.finished[id] = true
	if _, err := src.JobFinished(id, now); err != nil {
		r.t.Error(err)
	}
}

func (r *run) releasedSet() []scheduler.JobID {
	var out []scheduler.JobID
	for id := range r.released {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// check holds how a run ended to the oracle: every stage ends released
// or failed — refused at the door counts as failed — exactly one of the
// two and exactly as want says.
func (r *run) check(seed int64, mode string, src *runtime.LiveSource, refused map[scheduler.JobID]bool) {
	wantReleased, wantFailed := r.c.want()
	var failed []scheduler.JobID
	for _, st := range r.c.stages {
		status, accepted := src.Status(st.Job.ID)
		switch {
		case accepted == refused[st.Job.ID]:
			r.t.Errorf("seed %d: %s stage %d accepted=%v refused=%v", seed, mode, st.Job.ID, accepted, refused[st.Job.ID])
		case !accepted, status.State == runtime.JobFailed && !r.released[st.Job.ID]:
			failed = append(failed, st.Job.ID)
		case status.State != runtime.JobDone && status.State != runtime.JobFailed:
			r.t.Errorf("seed %d: %s stage %d ended %q", seed, mode, st.Job.ID, status.State)
		}
	}
	if got := r.releasedSet(); !slices.Equal(got, wantReleased) {
		r.t.Errorf("seed %d: %s released %v, want %v", seed, mode, got, wantReleased)
	}
	if !slices.Equal(failed, wantFailed) {
		r.t.Errorf("seed %d: %s failed %v, want %v", seed, mode, failed, wantFailed)
	}
}

// TestGraphProperty drives random DAGs, settle orders and materializer
// failures through a LiveSource, filled before the run as an s3compare cell
// is and submitted during it as a daemon is: every stage ends released
// or failed as the oracle says; none is released before its producers
// finished and were materialized; no producer is materialized twice.
// And the graph's order agrees with ParseFile about which listings have
// a cycle, and where.
func TestGraphProperty(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng)

		// Filled: every stage submitted, and the source closed, first.
		b := newRun(t, c)
		src := runtime.NewLiveSourceOn(nil, b.mat)
		for _, st := range c.stages {
			if _, err := src.SubmitStage(runtime.Arrival{Job: st.Job, At: st.At}, st.DependsOn, nil); err != nil {
				t.Fatalf("seed %d: SubmitStage %d: %v", seed, st.Job.ID, err)
			}
		}
		src.Close()
		now := vclock.Time(10)
		for b.deliver(src, src.Pop(now)); len(b.running) > 0; b.deliver(src, src.Pop(now)) {
			b.finishOne(rng, src, now)
			now += 2 // past the materialization delay
		}
		if err := src.Err(); src.Wait() || err != nil && strings.Contains(err.Error(), "never became ready") {
			t.Errorf("seed %d: filled run ended with stages queued or held: %v", seed, err)
		}
		b.check(seed, "filled", src, nil)

		// Live: stages are submitted in id order at random moments of the run.
		l := newRun(t, c)
		src = runtime.NewLiveSourceOn(nil, l.mat)
		refused := map[scheduler.JobID]bool{}
		next := 0
		// A release is due a materialization delay after the finish.
		for now = 10; next < len(c.stages) || len(l.running) > 0 || src.Pending() > 0; now++ {
			switch {
			case next < len(c.stages) && (len(l.running) == 0 || rng.Intn(2) == 0):
				st := c.stages[next]
				next++
				_, err := src.SubmitStage(runtime.Arrival{Job: st.Job}, st.DependsOn, nil)
				switch orphan := slices.ContainsFunc(st.DependsOn, func(d scheduler.JobID) bool { return refused[d] }); {
				case errors.Is(err, runtime.ErrDoomed), orphan && err != nil:
					refused[st.Job.ID] = true // a client never gets an id to build on
				case err != nil:
					t.Fatalf("seed %d: SubmitStage %d: %v", seed, st.Job.ID, err)
				}
			case len(l.running) > 0:
				l.finishOne(rng, src, now)
			}
			l.deliver(src, src.Pop(now))
		}
		l.check(seed, "live", src, refused)

		checkOrder(t, seed, rng)
		if t.Failed() {
			t.Fatalf("seed %d: stages %+v matFails %v", seed, c.stages, c.matFails)
		}
	}
}

// checkOrder lists a random directed graph — cycles allowed — in a
// random order, as a workload file and as stages: Order errs exactly
// when ParseFile reports a cycle, with ParseFile's words, and otherwise
// puts every stage after its producers.
func checkOrder(t *testing.T, seed int64, rng *rand.Rand) {
	n := 1 + rng.Intn(8)
	var stages []runtime.Stage
	for _, i := range rng.Perm(n) {
		st := runtime.Stage{Job: scheduler.JobMeta{ID: scheduler.JobID(i + 1)}}
		for _, d := range rng.Perm(n) {
			if d != i && rng.Intn(6) == 0 {
				st.DependsOn = append(st.DependsOn, scheduler.JobID(d+1))
			}
		}
		stages = append(stages, st)
	}
	var file strings.Builder
	file.WriteString(`{"kind":"workload","version":3,"name":"w","nodes":2,"slotsPerNode":1,"replicas":1}` + "\n")
	file.WriteString(`{"kind":"file","name":"f","content":"text","blocks":4,"blockBytes":64,"segmentBlocks":2}` + "\n")
	for _, st := range stages {
		deps := strings.Join(strings.Fields(fmt.Sprint(st.DependsOn)), ",")
		fmt.Fprintf(&file, `{"kind":"job","id":%d,"at":0,"file":"f","factory":"wordcount","param":"t","dependsOn":%s}`+"\n", st.Job.ID, deps)
	}
	_, parseErr := workload.ParseFile(strings.NewReader(file.String()))
	order, err := runtime.Order(stages)
	var cycle *runtime.CycleError
	switch {
	case parseErr == nil && err != nil:
		t.Errorf("seed %d: Order: %v; ParseFile accepts\n%s", seed, err, file.String())
	case parseErr != nil && (!errors.As(err, &cycle) || !strings.HasSuffix(parseErr.Error(), cycle.Error())):
		t.Errorf("seed %d: ParseFile: %v; Order: %v\n%s", seed, parseErr, err, file.String())
	case err == nil:
		place := make([]int, n+1)
		for pos, i := range order {
			place[stages[i].Job.ID] = pos
		}
		for _, st := range stages {
			for _, dep := range st.DependsOn {
				if place[dep] > place[st.Job.ID] {
					t.Errorf("seed %d: order %v puts stage %d before its producer %d", seed, order, st.Job.ID, dep)
				}
			}
		}
		if len(order) != n {
			t.Errorf("seed %d: order %v of %d stages", seed, order, n)
		}
	}
}
