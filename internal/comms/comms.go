// Package comms is the cluster's membership vocabulary — member states,
// a worker's self-reported ledger and its row of the cluster view, shared
// by the master's membership table and the status server that publishes
// it — and the task wire's framing (wire.go).
//
// A worker holds one connection to the master, internal/remote's task
// wire: it dials the master, registers on that connection, and the
// master then sends it every call — its tasks, and the Stats call that
// is its heartbeat. A worker restart needs no master-side
// configuration: the worker re-dials (Redial) and re-registers.
package comms

import "s3sched/internal/dfs"

// MemberState is a worker's position in the membership lifecycle.
type MemberState int

const (
	// Joined means the worker registered and answers heartbeats on time.
	Joined MemberState = iota
	// Suspect means the worker missed at least one heartbeat deadline
	// but has not yet been declared dead; it still receives tasks (a
	// transport failure will rotate them elsewhere).
	Suspect
	// Dead means the worker missed its final deadline or its connection
	// broke; it receives no tasks until it re-registers.
	Dead
)

var stateNames = map[MemberState]string{
	Joined:  "joined",
	Suspect: "suspect",
	Dead:    "dead",
}

// String returns the stable lowercase state name.
func (s MemberState) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return "unknown"
}

// WireStats is a worker's self-reported task/scan ledger, the answer to
// every heartbeat, so the master sees per-worker progress without an
// extra stats poll. FailedReads counts read attempts failed by the fault
// hook or the block source; CacheEvictions blocks discarded to fit the
// budget; CachePrefetches / CachePrefetchFailed readahead loads issued and
// failed; CacheBytes the cached footprint, CachePinnedBytes its pinned part.
// StashBytes / StashEntries are the map output it holds for unfinished
// jobs (key and value bytes; an entry per job and block), ShuffleServedBytes
// / ShuffleFetchedBytes what it gave to and took from peers reducing.
// ResultBytes / ResultEntries are the reduce output frames it keeps,
// ResultEvictions those it dropped, ResultServedBytes what the master read.
// MapTasks counts (block, job) map units, MapPasses the passes over a
// block's records that served them. A pass parses a block once for one
// group of a task's jobs: all its selections, or its word counts of one
// prefix; any other job has a pass of its own. Their ratio is how many
// jobs one parse of a record fed.
type WireStats struct {
	BlockReads          int64
	BytesScanned        int64
	FailedReads         int64
	MapTasks            int64
	MapPasses           int64
	ReduceTasks         int64
	CacheHits           int64
	CacheMisses         int64
	CacheEvictions      int64
	CachePrefetches     int64
	CachePrefetchFailed int64
	CacheBytes          int64
	CachePinnedBytes    int64
	StashBytes          int64
	StashEntries        int64
	ShuffleServedBytes  int64
	ShuffleFetchedBytes int64
	ResultBytes         int64
	ResultEntries       int64
	ResultEvictions     int64
	ResultServedBytes   int64
}

// Cache returns the ledger's block-cache counters in the form the
// metrics fold: the master's end-of-run poll and the status server's
// scrape-time view sum these over the workers.
func (s WireStats) Cache() dfs.CacheStats {
	return dfs.CacheStats{
		Hits:           s.CacheHits,
		Misses:         s.CacheMisses,
		Evictions:      s.CacheEvictions,
		Prefetches:     s.CachePrefetches,
		PrefetchFailed: s.CachePrefetchFailed,
		Bytes:          s.CacheBytes,
		PinnedBytes:    s.CachePinnedBytes,
	}
}

// ConnStats counts one peer connection's traffic in both directions.
type ConnStats struct {
	FramesSent int64 `json:"framesSent"`
	FramesRecv int64 `json:"framesRecv"`
	BytesSent  int64 `json:"bytesSent"`
	BytesRecv  int64 `json:"bytesRecv"`
}

// WorkerInfo is one worker's row in the cluster view served at
// GET /cluster: identity, state, liveness timings, and both the
// registration and heartbeat traffic counters and the last heartbeat's
// task ledger.
type WorkerInfo struct {
	ID       string `json:"id"`
	TaskAddr string `json:"taskAddr"`
	State    string `json:"state"`
	// MapSlots is the worker's share of a segment's width: what it
	// advertised when it registered, one for a remote.Dial member.
	MapSlots int `json:"mapSlots"`
	// SinceHeartbeat is seconds since the last answered heartbeat, or
	// since registration when none was answered yet.
	SinceHeartbeat float64 `json:"sinceHeartbeat,omitempty"`
	// HeartbeatMisses counts deadline misses over the worker's lifetime.
	HeartbeatMisses int64 `json:"heartbeatMisses"`
	// Reconnects counts re-registrations after the first.
	Reconnects int64 `json:"reconnects"`
	// Control counts the registration and heartbeat frames on the
	// worker's connection, both ways, as the master sent and read them.
	Control ConnStats `json:"control"`
	// Tasks is the worker's last self-reported ledger.
	Tasks WireStats `json:"tasks"`
}
