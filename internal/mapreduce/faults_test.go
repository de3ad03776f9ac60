package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/faults"
)

// replicatedCluster is testCluster with a replication factor.
func replicatedCluster(t *testing.T, nodes, replicas int, blocks [][]byte) (*Cluster, *dfs.Store) {
	t.Helper()
	store, err := dfs.NewStore(nodes, replicas)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if _, err := store.AddFile("input", int64(len(blocks[0])), blocks); err != nil {
		t.Fatalf("AddFile: %v", err)
	}
	return MustCluster(store, 1), store
}

func allBlocks(t *testing.T, store *dfs.Store) []dfs.BlockID {
	t.Helper()
	f, err := store.File("input")
	if err != nil {
		t.Fatal(err)
	}
	return f.Blocks()
}

func fastRetries(maxAttempts, blacklistAfter int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    maxAttempts,
		Backoff:        time.Microsecond,
		MaxBackoff:     10 * time.Microsecond,
		BlacklistAfter: blacklistAfter,
	}
}

// TestReadErrorLosesRound: a block whose every read attempt fails
// exhausts the retry budget and surfaces as *BlockLostError.
func TestReadErrorLosesRound(t *testing.T) {
	cluster, store := replicatedCluster(t, 2, 1, textBlocks("a b", "c d"))
	boom := errors.New("disk gone")
	store.SetReadFault(func(id dfs.BlockID, node dfs.NodeID) error {
		if id.Index == 1 {
			return boom
		}
		return nil
	})
	e := NewEngine(cluster)
	if err := e.SetRetryPolicy(fastRetries(3, 0)); err != nil {
		t.Fatal(err)
	}
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	stats, jobErrs, roundErr := e.MapRoundCtx(t.Context(), allBlocks(t, store), []*Running{job})
	if roundErr == nil {
		t.Fatal("MapRoundCtx succeeded despite unreadable block")
	}
	var lost *BlockLostError
	if !errors.As(roundErr, &lost) {
		t.Fatalf("round error %v, want *BlockLostError", roundErr)
	}
	if lost.Block.Index != 1 || lost.Attempts != 3 {
		t.Errorf("lost %v after %d attempts, want block 1 after 3", lost.Block, lost.Attempts)
	}
	if !errors.Is(roundErr, boom) {
		t.Errorf("round error %v does not wrap the read error", roundErr)
	}
	if jobErrs[0] != nil {
		t.Errorf("job error %v, want nil (the scan failed, not the job)", jobErrs[0])
	}
	if stats.FailedAttempts < 3 {
		t.Errorf("FailedAttempts = %d, want >= 3", stats.FailedAttempts)
	}
}

// TestFailoverToReplicaHolder: when the first holder's reads fail, the
// retry chain moves to a surviving node that also holds the block.
func TestFailoverToReplicaHolder(t *testing.T) {
	cluster, store := replicatedCluster(t, 4, 2, textBlocks("a b a b"))
	b := allBlocks(t, store)[0]

	var mu sync.Mutex
	var badNode dfs.NodeID = -1 // fail the first node that tries the block
	var succeeded dfs.NodeID = -1
	store.SetReadFault(func(id dfs.BlockID, node dfs.NodeID) error {
		mu.Lock()
		defer mu.Unlock()
		if badNode == -1 {
			badNode = node
		}
		if node == badNode {
			return errors.New("injected")
		}
		succeeded = node
		return nil
	})

	e := NewEngine(cluster)
	if err := e.SetRetryPolicy(fastRetries(4, 0)); err != nil {
		t.Fatal(err)
	}
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	stats, jobErrs, roundErr := e.MapRoundCtx(t.Context(), []dfs.BlockID{b}, []*Running{job})
	if roundErr != nil || jobErrs[0] != nil {
		t.Fatalf("round failed: round=%v job=%v", roundErr, jobErrs[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if succeeded == -1 || succeeded == badNode {
		t.Fatalf("no failover: first=%d succeeded=%d", badNode, succeeded)
	}
	// The first failover choice prefers an untried replica holder; with
	// 2 replicas the winning node must be the other holder.
	if !store.HasLocal(b, succeeded) {
		t.Errorf("failover landed on node %d which does not hold %v (holders %v)",
			succeeded, b, store.Locations(b))
	}
	if stats.Retries == 0 {
		t.Errorf("stats.Retries = 0, want > 0")
	}
}

// TestBlacklistAfterConsecutiveFailures: K consecutive read failures on
// one node mark it unhealthy and later work avoids it.
func TestBlacklistAfterConsecutiveFailures(t *testing.T) {
	cluster, store := replicatedCluster(t, 3, 2, textBlocks("a b", "c d", "e f", "g h"))
	store.SetReadFault(func(id dfs.BlockID, node dfs.NodeID) error {
		if node == 0 {
			return errors.New("node 0 is sick")
		}
		return nil
	})
	e := NewEngine(cluster)
	if err := e.SetRetryPolicy(fastRetries(6, 2)); err != nil {
		t.Fatal(err)
	}
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	stats, jobErrs, roundErr := e.MapRoundCtx(t.Context(), allBlocks(t, store), []*Running{job})
	if roundErr != nil || jobErrs[0] != nil {
		t.Fatalf("round failed: round=%v job=%v", roundErr, jobErrs[0])
	}
	if cluster.Healthy(0) {
		t.Error("node 0 still healthy after repeated failures")
	}
	if stats.Blacklisted != 1 {
		t.Errorf("stats.Blacklisted = %d, want 1", stats.Blacklisted)
	}
	if stats.FailedAttempts == 0 {
		t.Error("stats.FailedAttempts = 0, want > 0")
	}
}

// TestMapRoundIsolatesJobFailure: one job's mapper error must not
// disturb the co-batched job sharing the scan.
func TestMapRoundIsolatesJobFailure(t *testing.T) {
	cluster, store := replicatedCluster(t, 2, 1, textBlocks("a b a", "b c b"))
	e := NewEngine(cluster)
	good, err := NewRunning(wordCountSpec("good"))
	if err != nil {
		t.Fatal(err)
	}
	badSpec := wordCountSpec("bad")
	badSpec.Mapper = failingMapper{}
	bad, err := NewRunning(badSpec)
	if err != nil {
		t.Fatal(err)
	}
	_, jobErrs, roundErr := e.MapRoundCtx(t.Context(), allBlocks(t, store), []*Running{good, bad})
	if roundErr != nil {
		t.Fatalf("round error %v, want nil (job failure is isolated)", roundErr)
	}
	if jobErrs[0] != nil {
		t.Errorf("good job error %v, want nil", jobErrs[0])
	}
	if jobErrs[1] == nil {
		t.Error("bad job reported no error")
	}
	res, err := e.Finish(good)
	if err != nil {
		t.Fatalf("Finish(good): %v", err)
	}
	if got := outputMap(res)["b"]; got != "3" {
		t.Errorf("good job count[b] = %q, want 3", got)
	}
}

type failingMapper struct{}

func (failingMapper) Map(_ dfs.BlockID, _ []byte, _ Emit) error {
	return errors.New("mapper exploded")
}

// TestFaultyRunMatchesCleanRun is the determinism property: with a
// deterministic injector forcing retries (but bounded so every block
// eventually reads), the job's output is byte-identical to a fault-free
// run.
func TestFaultyRunMatchesCleanRun(t *testing.T) {
	blocks := textBlocks(
		"a b a c", "b c b a", "c c a b", "a a a c",
		"b b c a", "c a b b", "a c c c", "b a a b",
	)

	run := func(inject bool) string {
		cluster, store := replicatedCluster(t, 4, 2, blocks)
		if inject {
			inj, err := faults.New(faults.Config{
				Seed:                7,
				ReadFailRate:        0.4,
				MaxInjectedPerBlock: 2, // every retry chain converges
			})
			if err != nil {
				t.Fatal(err)
			}
			store.SetReadFault(inj.FailRead)
		}
		e := NewEngine(cluster)
		if err := e.SetRetryPolicy(fastRetries(8, 0)); err != nil {
			t.Fatal(err)
		}
		job, err := NewRunning(wordCountSpec("wc"))
		if err != nil {
			t.Fatal(err)
		}
		all := allBlocks(t, store)
		// Two rounds, like an S^3 split execution.
		if _, jobErrs, roundErr := e.MapRoundCtx(t.Context(), all[:4], []*Running{job}); roundErr != nil || jobErrs[0] != nil {
			t.Fatalf("round 1 (inject=%v): round=%v job=%v", inject, roundErr, jobErrs[0])
		}
		if _, jobErrs, roundErr := e.MapRoundCtx(t.Context(), all[4:], []*Running{job}); roundErr != nil || jobErrs[0] != nil {
			t.Fatalf("round 2 (inject=%v): round=%v job=%v", inject, roundErr, jobErrs[0])
		}
		res, err := e.Finish(job)
		if err != nil {
			t.Fatalf("Finish (inject=%v): %v", inject, err)
		}
		return fmt.Sprint(res.Output)
	}

	clean := run(false)
	faulty := run(true)
	if clean != faulty {
		t.Errorf("faulty run diverged:\nclean:  %s\nfaulty: %s", clean, faulty)
	}
}

// TestMapRoundCtxCancellation: a cancelled context stops the round and
// surfaces as the round error without hanging.
func TestMapRoundCtxCancellation(t *testing.T) {
	cluster, store := replicatedCluster(t, 2, 1, textBlocks("a b", "c d"))
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	e := NewEngine(cluster)
	job, err := NewRunning(wordCountSpec("wc"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, roundErr := e.MapRoundCtx(ctx, allBlocks(t, store), []*Running{job})
	if !errors.Is(roundErr, context.Canceled) {
		t.Fatalf("round error %v, want context.Canceled", roundErr)
	}
}
