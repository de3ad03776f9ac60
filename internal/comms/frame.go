package comms

import "fmt"

// FrameKind tags an Envelope's payload.
type FrameKind int

const (
	// FrameRegister is a worker announcing itself to the master.
	FrameRegister FrameKind = iota
	// FrameHeartbeat is a worker's periodic liveness proof.
	FrameHeartbeat
	// FrameAck is the master's reply to either, carrying acceptance.
	FrameAck
)

var frameNames = map[FrameKind]string{
	FrameRegister:  "register",
	FrameHeartbeat: "heartbeat",
	FrameAck:       "ack",
}

// String returns the stable lowercase frame name.
func (k FrameKind) String() string {
	if n, ok := frameNames[k]; ok {
		return n
	}
	return fmt.Sprintf("frame(%d)", int(k))
}

// Capabilities describes what a worker brings to the cluster.
type Capabilities struct {
	// CacheBytes is the worker's block-cache budget (0 = caching off).
	CacheBytes int64
	// MapSlots is how many (block × job) map units the worker runs side by
	// side: its GOMAXPROCS. The master sizes a segment by the sum over its
	// workers; zero — an older worker — counts as one.
	MapSlots int
}

// RegisterFrame is a worker's join request: identity, where the master
// can dial its task RPC server, what blocks it holds, and what it can
// run.
type RegisterFrame struct {
	// ID is the worker's stable self-chosen identity. Re-registering
	// the same ID replaces the previous incarnation (restart), it does
	// not add a second worker.
	ID string
	// TaskAddr is the address the master dials back for task RPCs.
	TaskAddr string
	// Blocks is the worker's block inventory: file name → block count.
	Blocks map[string]int
	// Capabilities describes cache budget and runnable factories.
	Capabilities Capabilities
}

// HeartbeatFrame is a worker's periodic liveness proof plus its
// streamed task ledger.
type HeartbeatFrame struct {
	// Seq increments per heartbeat within one registration.
	Seq int64
	// Stats is the worker's cumulative task/scan ledger.
	Stats WireStats
}

// AckFrame is the master's reply to a register or heartbeat.
type AckFrame struct {
	OK bool
	// Msg explains a rejection (unknown corpus shape, dial-back
	// failure); empty on success.
	Msg string
}

// Envelope is the one wire struct: exactly the field matching Kind is
// set. A single concrete struct keeps gob simple (no interface
// registration) and lets Conn count frames uniformly.
type Envelope struct {
	Kind      FrameKind
	Register  *RegisterFrame
	Heartbeat *HeartbeatFrame
	Ack       *AckFrame
}
