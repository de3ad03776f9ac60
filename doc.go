// Package s3sched reproduces "S^3: An Efficient Shared Scan Scheduler
// on MapReduce Framework" (Shi, Li, Tan — ICPP 2011) as a
// self-contained Go system: a from-scratch MapReduce engine and
// block-store substrate, the S^3 scheduler with its segment/sub-job
// machinery, the FIFO and MRShare baselines, a calibrated
// discrete-event cluster simulator, and a benchmark harness that
// regenerates every table and figure of the paper's evaluation.
//
// Layout:
//
//	internal/core       S^3 itself: JQM (Algorithm 1), circular scan,
//	                    sub-job alignment, slot checking, dynamic
//	                    segment sizing; the FIFO and MRShare baselines
//	                    and the ablations as admission gates on the JQM
//	internal/dfs        block store, placement, segment plans
//	internal/mapreduce  the task code (map/combine/partition, reduce,
//	                    shuffle frames) and its sequential reference
//	internal/remote     the master and workers that run it over TCP,
//	                    across processes or in one (StartLocal)
//	internal/scheduler  Scheduler interface, multi-file Arbiter, Fair
//	internal/sim        discrete-event simulator + cost model
//	internal/runtime    the round loop binding schedulers to executors,
//	                    and its one admission queue with the jobs'
//	                    dependency graph (DAG stages)
//	internal/workload   text & TPC-H lineitem generators, job families
//	internal/metrics    TET / ART over the run's job table, live registry
//	internal/experiments  every paper experiment + claim checks
//	cmd/s3bench         regenerate all tables & figures; subcommands
//	                    sim (free-form simulator runs), replay (CSV
//	                    arrival traces), demo (Algorithm 1 walkthrough
//	                    with live trace), calibrate (cost-model search)
//	cmd/s3compare       workload file × scheduler/engine matrix report
//	cmd/s3report        diff two reports, gate on drift
//	cmd/s3cluster       distributed mode: workers + S^3 master
//	examples/           runnable quickstart + workload scenarios
//
// The top-level bench_test.go maps each paper table/figure to one
// testing.B benchmark; see EXPERIMENTS.md for paper-vs-measured.
package s3sched
