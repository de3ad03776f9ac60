package remote

import (
	goruntime "runtime"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// StartLocal's workers join through the control plane, in order: they
// are registered members, not static ones, advertise their processors
// as map slots, and block i of a round is mapped on Workers[i mod n].
func TestStartLocalRegistersWorkersInOrder(t *testing.T) {
	stores := make([]*dfs.Store, 3)
	for i := range stores {
		stores[i] = dfs.MustStore(1, 1)
		if _, err := workload.AddTextFile(stores[i], "corpus", 4, testBlockSize, testSeed); err != nil {
			t.Fatal(err)
		}
	}
	cluster, err := StartLocal(wordcountRefs(1), NewStandardRegistry(), stores...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	slots := goruntime.GOMAXPROCS(0)
	if n, total := cluster.MapSlots(); n != 3 || total != 3*slots {
		t.Errorf("MapSlots = %d slots on %d workers, want %d on 3", total, n, 3*slots)
	}
	for _, info := range cluster.ClusterSnapshot() {
		if info.State != "joined" || info.MapSlots != slots {
			t.Errorf("member %+v: want a joined, registered worker of %d slots", info, slots)
		}
	}
	_, live := cluster.members.live()
	for i, w := range live {
		if want := cluster.Workers[i]; w.addr != want.addr {
			t.Errorf("live worker %d is at %s, want Workers[%d] at %s", i, w.addr, i, want.addr)
		}
	}
	round := scheduler.Round{Jobs: []scheduler.JobMeta{{ID: 1, File: "corpus"}}, Completes: []scheduler.JobID{1}}
	for b := 0; b < 4; b++ {
		round.Blocks = append(round.Blocks, dfs.BlockID{File: "corpus", Index: b})
	}
	if _, err := cluster.ExecRound(round); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{2, 1, 1} { // blocks 0 and 3, 1, 2
		if got := stores[i].Stats().BlockReads; got != want {
			t.Errorf("Workers[%d] read %d blocks, want %d", i, got, want)
		}
	}
	if _, err := StartLocal(nil, NewStandardRegistry()); err == nil {
		t.Error("a local cluster of no workers started")
	}
}
