// Package faults is the deterministic coin behind the simulator's
// transient block-read failures. The same seed always produces the same
// fault schedule, independent of goroutine interleaving, so experiments
// under failure are as reproducible as the fault-free ones.
//
// Determinism comes from keying every decision on stable identities
// rather than on wall time or call order: the simulator's FaultModel
// fails a read attempt iff Roll over (seed, round, HashBlock(block),
// attempt) falls under the configured rate.
package faults

import "s3sched/internal/dfs"

// Roll hashes the seed with the given parts into a uniform float64 in
// [0,1). It is the shared deterministic coin for every fault decision.
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
