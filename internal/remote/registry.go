// Package remote is the execution substrate for real bytes: a master
// drives map and reduce tasks on worker processes over TCP (net/rpc),
// the way the paper's S^3 plugin drives Hadoop TaskTrackers. It is the
// only one: s3cluster deploys it across processes, and StartLocal boots
// the same master and workers inside one process for the benchmark's
// engine cells, the examples and the demos. The schedulers are
// byte-for-byte the same ones the simulator uses — the master simply
// implements runtime.Executor — which demonstrates the paper's claim
// that S^3 integrates non-intrusively with the execution layer (§IV-A).
//
// Job code cannot cross the wire, so jobs are named factory
// invocations: every worker holds a Registry mapping factory names to
// mapper/reducer constructors, and the master sends
// (factory, parameter) pairs. Workers generate their blocks locally
// from the deterministic workload generators — the distributed
// analogue of data locality: the bytes never travel, only task
// descriptions and intermediate records do.
package remote

import (
	"fmt"
	"sort"

	"s3sched/internal/mapreduce"
	"s3sched/internal/workload"
)

// JobFactory builds a job's executable parts from a parameter string.
type JobFactory func(param string) (mapreduce.Mapper, mapreduce.Reducer, mapreduce.Reducer, error)

// Registry resolves factory names. It is populated once at startup and
// read-only afterwards, so it needs no locking.
type Registry struct {
	factories map[string]JobFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]JobFactory)}
}

// Register adds a factory under name. Re-registering a name is a
// configuration bug and panics.
func (r *Registry) Register(name string, f JobFactory) {
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("remote: factory %q registered twice", name))
	}
	r.factories[name] = f
}

// Names returns the registered factory names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for name := range r.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Build resolves a factory and constructs the job parts.
func (r *Registry) Build(name, param string) (mapper mapreduce.Mapper, reducer, combiner mapreduce.Reducer, err error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("remote: unknown job factory %q (have %v)", name, r.Names())
	}
	return f(param)
}

// NewStandardRegistry returns a registry with every factory of the job
// catalog (workload.Catalog).
func NewStandardRegistry() *Registry {
	r := NewRegistry()
	for name, f := range workload.Catalog {
		r.Register(name, f.Build)
	}
	return r
}
