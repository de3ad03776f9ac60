// Package faults implements deterministic, seeded fault injection for
// the execution substrates: transient block-read failures. The same
// seed always produces the same fault schedule, independent of
// goroutine interleaving, so experiments under failure are as
// reproducible as the fault-free ones.
//
// Determinism comes from keying every decision on stable identities
// rather than on wall time or call order: a read attempt fails iff a
// hash of (seed, block, node, attempt-number) falls under the
// configured rate, where the attempt number counts that (block, node)
// pair's reads so far. Concurrent reads of *different* blocks or nodes
// never perturb each other's schedules.
//
// The injector plugs into both substrates: dfs.Store.SetReadFault
// accepts Injector.FailRead for the real engine, and the simulator's
// FaultModel uses the same Roll hash for its priced failures.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"

	"s3sched/internal/dfs"
)

// Config parameterizes an Injector.
type Config struct {
	// Seed selects the fault schedule. Two injectors with equal
	// configs produce identical schedules.
	Seed int64
	// ReadFailRate is the probability in [0,1) that an individual
	// block-read attempt fails with a transient error.
	ReadFailRate float64
	// MaxInjectedPerBlock bounds how many consecutive transient
	// failures are injected per (block, node) pair; after that many,
	// reads succeed regardless of the rate. 0 means unbounded. A bound
	// guarantees any retry policy with more attempts converges.
	MaxInjectedPerBlock int
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.ReadFailRate < 0 || c.ReadFailRate >= 1 {
		return fmt.Errorf("faults: read-fail rate %v outside [0,1)", c.ReadFailRate)
	}
	if c.MaxInjectedPerBlock < 0 {
		return fmt.Errorf("faults: MaxInjectedPerBlock %d negative", c.MaxInjectedPerBlock)
	}
	return nil
}

// Stats counts what the injector actually did.
type Stats struct {
	// InjectedReadFailures is how many read attempts were failed.
	InjectedReadFailures int64
}

// Injector is a deterministic fault source. It is safe for concurrent
// use. A nil *Injector injects nothing, so components can hold an
// optional injector without nil checks.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	attempts map[attemptKey]int

	injectedReads atomic.Int64
}

type attemptKey struct {
	block dfs.BlockID
	node  dfs.NodeID
}

// New builds an injector from the config.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, attempts: make(map[attemptKey]int)}, nil
}

// ErrInjected is the sentinel every injected transient read failure
// wraps, so callers can distinguish injected faults from real ones.
var ErrInjected = fmt.Errorf("faults: injected failure")

// FailRead implements the dfs.ReadFault hook: it decides whether this
// read attempt of block id by node fails. The decision is a pure
// function of (seed, block, node, attempt-count-so-far).
func (in *Injector) FailRead(id dfs.BlockID, node dfs.NodeID) error {
	if in == nil {
		return nil
	}
	if in.cfg.ReadFailRate <= 0 {
		return nil
	}
	in.mu.Lock()
	k := attemptKey{block: id, node: node}
	attempt := in.attempts[k]
	in.attempts[k] = attempt + 1
	in.mu.Unlock()
	if in.cfg.MaxInjectedPerBlock > 0 && attempt >= in.cfg.MaxInjectedPerBlock {
		return nil
	}
	if Roll(in.cfg.Seed, uint64(HashBlock(id)), uint64(node), uint64(attempt)) < in.cfg.ReadFailRate {
		in.injectedReads.Add(1)
		return fmt.Errorf("%w: transient read of %v on node %d (attempt %d)", ErrInjected, id, node, attempt+1)
	}
	return nil
}

// Stats returns a snapshot of what was injected so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{InjectedReadFailures: in.injectedReads.Load()}
}

// Roll hashes the seed with the given parts into a uniform float64 in
// [0,1). It is the shared deterministic coin for every fault decision:
// the injector keys it on (block, node, attempt), the simulator on
// (round, block, attempt).
func Roll(seed int64, parts ...uint64) float64 {
	h := uint64(seed)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	// 53 bits of the hash give a uniform double in [0,1).
	return float64(h>>11) / float64(1<<53)
}

// splitmix64 is the standard 64-bit finalizer (Steele et al.), chosen
// for its avalanche quality and zero allocation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashBlock folds a block id into a stable 64-bit value (FNV-1a over
// the file name, mixed with the index).
func HashBlock(id dfs.BlockID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id.File); i++ {
		h ^= uint64(id.File[i])
		h *= prime64
	}
	return splitmix64(h ^ uint64(id.Index))
}
