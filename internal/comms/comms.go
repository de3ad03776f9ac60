// Package comms is the cluster control-plane wire layer: persistent
// TCP connections carrying length-prefixed gob frames, a
// dial-with-exponential-backoff helper, and the membership vocabulary
// (states, events, per-worker info) shared by the master's membership
// table, the runtime engine that consumes its deltas, and the status
// server that publishes it.
//
// The control plane is deliberately separate from the task plane:
// workers dial the master here to register and heartbeat, while task
// calls flow master→worker over internal/remote's framed task wire, on
// connections the master opens against each registered worker's
// advertised task address. A worker restart therefore needs no
// master-side configuration — the worker re-dials, re-registers, and the
// master re-opens its task client.
package comms

import "s3sched/internal/dfs"

// MemberState is a worker's position in the membership lifecycle.
type MemberState int

const (
	// Joined means the worker registered and is heartbeating on time.
	Joined MemberState = iota
	// Suspect means the worker missed at least one heartbeat deadline
	// but has not yet been declared dead; it still receives tasks (a
	// transport failure will rotate them elsewhere).
	Suspect
	// Dead means the worker missed its final deadline or its control
	// connection broke; it receives no tasks until it re-registers.
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

// MemberEventKind classifies one membership delta.
type MemberEventKind int

const (
	// MemberRegistered records a never-before-seen worker joining.
	MemberRegistered MemberEventKind = iota
	// MemberRejoined records a previously known worker re-registering
	// after a restart or disconnect.
	MemberRejoined
	// MemberSuspect records a worker missing a heartbeat deadline.
	MemberSuspect
	// MemberRestored records a suspect worker heartbeating again
	// before being declared dead.
	MemberRestored
	// MemberLost records a worker being declared dead.
	MemberLost
)

var eventNames = map[MemberEventKind]string{
	MemberRegistered: "registered",
	MemberRejoined:   "rejoined",
	MemberSuspect:    "suspect",
	MemberRestored:   "restored",
	MemberLost:       "lost",
}

// String returns the stable lowercase event name.
func (k MemberEventKind) String() string {
	if n, ok := eventNames[k]; ok {
		return n
	}
	return "unknown"
}

// MemberEvent is one membership delta, drained in order by whoever
// watches the table (the runtime engine folds them into its trace and
// metrics).
type MemberEvent struct {
	// Worker is the worker's self-chosen identity.
	Worker string
	Kind   MemberEventKind
	// Misses is the worker's consecutive missed-heartbeat count at the
	// time of the event (meaningful for MemberSuspect/MemberLost).
	Misses int
	// Detail is a free-form human-readable annotation (the transport
	// error for losses, the advertised address for joins).
	Detail string
}

// WireStats is a worker's self-reported task/scan ledger, shipped in
// every heartbeat so the master sees per-worker progress without an
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
// control-plane traffic counters and the last heartbeat's task ledger.
type WorkerInfo struct {
	ID       string `json:"id"`
	TaskAddr string `json:"taskAddr"`
	State    string `json:"state"`
	// Static marks members dialled at boot (remote.Dial) that never heartbeat.
	Static bool `json:"static,omitempty"`
	// MapSlots is the worker's share of a segment's width: what it
	// advertised when it registered, one for a static member.
	MapSlots int `json:"mapSlots"`
	// SinceHeartbeat is seconds since the last heartbeat (or since
	// registration when none arrived yet); absent for static members.
	SinceHeartbeat float64 `json:"sinceHeartbeat,omitempty"`
	// HeartbeatMisses counts deadline misses over the worker's lifetime.
	HeartbeatMisses int64 `json:"heartbeatMisses"`
	// Reconnects counts re-registrations after the first.
	Reconnects int64 `json:"reconnects"`
	// Control is the master-side control connection's traffic ledger.
	Control ConnStats `json:"control"`
	// Tasks is the worker's last self-reported ledger.
	Tasks WireStats `json:"tasks"`
}
