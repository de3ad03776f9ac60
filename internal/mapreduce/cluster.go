package mapreduce

import (
	"context"
	"fmt"
	"sync"

	"s3sched/internal/dfs"
)

// Node is one worker machine: a fixed number of map slots (the paper
// configures one per node) and a relative processing speed used by the
// slot checker and the simulator.
type Node struct {
	ID       dfs.NodeID
	MapSlots int
	// Speed is the node's relative processing speed (1.0 = nominal).
	// The real engine does not slow goroutines down; Speed feeds the
	// slot checker's completion-time estimates and the simulator.
	Speed float64

	sem chan struct{} // buffered to MapSlots; one token per running task
}

// acquireCtx takes one map slot unless ctx is cancelled first.
func (n *Node) acquireCtx(ctx context.Context) error {
	select {
	case n.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns one map slot.
func (n *Node) release() { <-n.sem }

// Cluster is a set of nodes over a shared block store.
type Cluster struct {
	store *dfs.Store
	nodes []*Node

	healthMu sync.RWMutex
	down     map[dfs.NodeID]bool
}

// NewCluster builds a cluster of n identical nodes with the given map
// slots each, matching the store's node count. An invalid slot count
// returns an error so flag-driven callers can report it.
func NewCluster(store *dfs.Store, slotsPerNode int) (*Cluster, error) {
	if slotsPerNode <= 0 {
		return nil, fmt.Errorf("mapreduce: slots per node must be positive, got %d", slotsPerNode)
	}
	nodes := make([]*Node, store.Nodes())
	for i := range nodes {
		nodes[i] = &Node{
			ID:       dfs.NodeID(i),
			MapSlots: slotsPerNode,
			Speed:    1.0,
			sem:      make(chan struct{}, slotsPerNode),
		}
	}
	return &Cluster{store: store, nodes: nodes}, nil
}

// MustCluster is NewCluster for static configurations known to be
// valid (tests, examples); it panics on error.
func MustCluster(store *dfs.Store, slotsPerNode int) *Cluster {
	c, err := NewCluster(store, slotsPerNode)
	if err != nil {
		panic(err)
	}
	return c
}

// Store returns the block store the cluster computes over.
func (c *Cluster) Store() *dfs.Store { return c.store }

// Nodes returns the cluster's nodes. Callers must not mutate the slice.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given id.
func (c *Cluster) Node(id dfs.NodeID) *Node {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		panic(fmt.Sprintf("mapreduce: node %d out of range [0,%d)", id, len(c.nodes)))
	}
	return c.nodes[id]
}

// SetHealth marks a node up or down. Down nodes are skipped by block
// assignment and replica failover until marked up again; the engine's
// blacklist and fault injectors drive this.
func (c *Cluster) SetHealth(id dfs.NodeID, up bool) {
	c.Node(id) // range-check
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	if up {
		delete(c.down, id)
		return
	}
	if c.down == nil {
		c.down = make(map[dfs.NodeID]bool)
	}
	c.down[id] = true
}

// Healthy reports whether the node is currently marked up.
func (c *Cluster) Healthy(id dfs.NodeID) bool {
	c.healthMu.RLock()
	defer c.healthMu.RUnlock()
	return !c.down[id]
}

// HealthyCount returns how many nodes are currently up.
func (c *Cluster) HealthyCount() int {
	c.healthMu.RLock()
	defer c.healthMu.RUnlock()
	return len(c.nodes) - len(c.down)
}

// assignment maps each block of a round to the node that will run its
// map task, plus whether the choice was data-local.
type assignment struct {
	block dfs.BlockID
	node  *Node
	local bool
}

// assignBlocks picks a node per block, preferring replica holders and
// balancing task counts across nodes. This mirrors Hadoop's locality-
// first task assignment closely enough for scheduling purposes: with
// the paper's replication factor 1 and one slot per node, every block
// lands on its holder. Nodes marked down are skipped; if every node is
// down, assignment falls back to ignoring health so the round can fail
// with a read error rather than deadlock.
func (c *Cluster) assignBlocks(blocks []dfs.BlockID) []assignment {
	load := make([]int, len(c.nodes))
	out := make([]assignment, 0, len(blocks))
	anyUp := c.HealthyCount() > 0
	for _, b := range blocks {
		var best *Node
		local := false
		// Prefer the least-loaded healthy replica holder.
		for _, nid := range c.store.Locations(b) {
			n := c.Node(nid)
			if anyUp && !c.Healthy(n.ID) {
				continue
			}
			if best == nil || load[n.ID] < load[best.ID] {
				best = n
				local = true
			}
		}
		// Fall back to the globally least-loaded healthy node.
		if best == nil {
			for _, n := range c.nodes {
				if anyUp && !c.Healthy(n.ID) {
					continue
				}
				if best == nil || load[n.ID] < load[best.ID] {
					best = n
				}
			}
			local = false
		}
		load[best.ID]++
		out = append(out, assignment{block: b, node: best, local: local})
	}
	return out
}
