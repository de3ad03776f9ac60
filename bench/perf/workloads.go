package main

import (
	"fmt"
	"math/rand"

	"s3sched/internal/workload"
)

// spec is one benchmark workload: the cluster it boots and the closed
// loop it drives. The counts were sized on a 2-core 2.1 GHz Xeon so that
// warm-up takes about 2.5 s; README.md gives the reasoning per workload.
type spec struct {
	Name string
	Why  string

	// Cluster shape. Every process gets the same -blocks / -blocksize /
	// -seed; workers additionally get -cachemb, the master the journal.
	Blocks    int
	BlockSize int64
	CacheMB   int64
	Journal   bool

	// Job shape. File is the dfs file the factory scans (cmd/s3cluster's
	// factoryFile); Params are the candidates the seed draws from.
	Factory   string
	File      string
	Params    []string
	NumReduce int

	// InFlight is W, the closed loop's outstanding-job count; Warmup is the
	// number of completions that end set-up and start the measured window.
	InFlight int
	Warmup   int
}

func (s spec) fileMB() float64 { return float64(s.Blocks) * float64(s.BlockSize) / (1 << 20) }

var prefixes16 = workload.DistinctPrefixes(16)

// workloads is the fixed set BENCHMARK.json names, in its order.
var workloads = []spec{
	{
		Name:   "wc-shared",
		Why:    "heavy scan sharing, corpus fits the cache: workers spend nearly all CPU in map, combine and partition",
		Blocks: 32, BlockSize: 256 << 10, CacheMB: 64,
		Factory: "wordcount", File: "corpus", Params: prefixes16, NumReduce: 2,
		InFlight: 8, Warmup: 48,
	},
	{
		Name:   "scan-cold",
		Why:    "working set twice the cache and little sharing: every pass pays the physical block read, so cache and prefetch changes show here only",
		Blocks: 32, BlockSize: 256 << 10, CacheMB: 2,
		Factory: "wordcount", File: "corpus", Params: prefixes16, NumReduce: 2,
		InFlight: 2, Warmup: 28,
	},
	{
		Name:   "sel-shuffle",
		Why:    "10% selection without combiner: bulk records cross gob and net/rpc to the master, are merged there and shipped back for the reduce sort",
		Blocks: 32, BlockSize: 512 << 10, CacheMB: 64,
		Factory: "selection", File: "lineitem", Params: []string{"5"}, NumReduce: 2,
		InFlight: 4, Warmup: 56,
	},
	{
		Name:   "admit-durable",
		Why:    "tiny corpus and a write-ahead journal of about 40 appends per job: admission, journal encode and write, NextRound, the run loop and per-RPC fixed cost dominate, map work is small",
		Blocks: 64, BlockSize: 4 << 10, CacheMB: 64, Journal: true,
		Factory: "wordcount", File: "corpus", Params: prefixes16, NumReduce: 2,
		InFlight: 8, Warmup: 560,
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// paramStream hands each job its parameter: the workload's candidates in
// an order the seed shuffles, repeated. A job's cost depends on its
// parameter (a frequent prefix emits, sorts and combines more), so plain
// random draws would make the mix, and with it every metric, differ from
// window to window; cycling a permutation gives every stretch of
// len(Params) jobs the same mix under any seed. It is the only place the
// seed reaches the job mix; the cluster gets the seed as its corpus seed.
type paramStream struct {
	order []string
	next  int
}

func newParamStream(s spec, seed int64) *paramStream {
	order := append([]string(nil), s.Params...)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &paramStream{order: order}
}

func (p *paramStream) draw() string {
	v := p.order[p.next%len(p.order)]
	p.next++
	return v
}
