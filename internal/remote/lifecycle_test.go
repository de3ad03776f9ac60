package remote

import (
	"fmt"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

// TestWorkerCloseRacesInflightRPCs hammers a worker with map and reduce
// calls from several clients while Close fires concurrently. The
// specified behavior is narrow — every call either succeeds or fails
// with a transport error, and nothing panics, deadlocks, or trips the
// race detector — but that is exactly the window the master's failover
// path lives in.
func TestWorkerCloseRacesInflightRPCs(t *testing.T) {
	for round := 0; round < 5; round++ {
		w := NewWorker(testStore(t), NewStandardRegistry())
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		const clients = 4
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			cl, err := rpc.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(cl *rpc.Client, c int) {
				defer wg.Done()
				defer cl.Close()
				<-start
				for i := 0; i < 50; i++ {
					var mr MapTaskReply
					err := cl.Call("Worker.ExecMap", &MapTaskArgs{
						File: "corpus", Blocks: []int{i % testBlocks}, IDs: []scheduler.JobID{scheduler.JobID(c)},
						Jobs: []JobRef{{Factory: "wordcount", Param: "t", NumReduce: 1}},
					}, &mr)
					if err != nil {
						if !isTransportError(err) {
							t.Errorf("client %d: non-transport error racing Close: %v", c, err)
						}
						return
					}
				}
			}(cl, c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			if err := w.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
		// Close is idempotent even after the race.
		if err := w.Close(); err != nil {
			t.Errorf("second close: %v", err)
		}
	}
}

// TestWorkerCloseRacesRegistration closes a worker while its control
// loop is mid-session (and mid-reconnect), covering the accept-loop and
// control-loop shutdown edges.
func TestWorkerCloseRacesRegistration(t *testing.T) {
	master := NewMaster(nil)
	ctlAddr, err := master.ListenControl("127.0.0.1:0", testCtlConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	for i := 0; i < 8; i++ {
		w := NewWorker(testStore(t), NewStandardRegistry())
		if _, err := w.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := w.Register(ctlAddr, RegisterOptions{ID: fmt.Sprintf("racer-%d", i), Heartbeat: testHeartbeat}); err != nil {
			t.Fatal(err)
		}
		// Close at staggered offsets: sometimes before the handshake
		// lands, sometimes after heartbeats have started.
		time.Sleep(time.Duration(i) * time.Millisecond)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentRegisterJobDuringExecRound admits new jobs while rounds
// are executing — the live-admission daemon's steady state. Every
// registration must land without racing the in-flight round's ref
// lookups.
func TestConcurrentRegisterJobDuringExecRound(t *testing.T) {
	jobs := wordcountRefs(1)
	master, _ := startCluster(t, 2, jobs)
	master.SetTimeScale(1e6)

	stop := make(chan struct{})
	var admitWG sync.WaitGroup
	admitWG.Add(1)
	go func() {
		defer admitWG.Done()
		for next := scheduler.JobID(100); ; next++ {
			select {
			case <-stop:
				return
			default:
			}
			err := master.RegisterJob(next, JobRef{
				Name: fmt.Sprintf("late-%d", next), Factory: "wordcount", Param: "z", NumReduce: 2,
			})
			if err != nil {
				t.Errorf("concurrent RegisterJob: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	for i := 0; i < 6; i++ {
		r := scheduler.Round{
			Segment: i % 3,
			Jobs:    []scheduler.JobMeta{{ID: 1, File: "corpus"}},
		}
		for b := 0; b < 4; b++ {
			r.Blocks = append(r.Blocks, dfs.BlockID{File: "corpus", Index: (i*4 + b) % testBlocks})
		}
		if _, err := master.ExecRound(r); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	close(stop)
	admitWG.Wait()
}
