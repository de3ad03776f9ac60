package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"s3sched/internal/benchfmt"
	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Differential benchmark: run one workload file through the
// {scheduler} × {sim|engine} × {cache} matrix and emit one
// benchfmt.Cell per configuration, every cell comparable because every
// cell saw the identical workload. Two properties make the report a
// regression gate rather than a one-off snapshot:
//
//   - Determinism. Sim cells are priced by the cost model. Engine
//     cells run the deployed master and workers in-process
//     (remote.StartLocal) for *outputs* but take their *timings* from a
//     sibling sim executor over the planning store (pricedExec below),
//     so a report is byte-for-byte reproducible — wall clocks never
//     leak into it — and a sim cell and its engine twin march through
//     the same round sequence with the same TET.
//
//   - Output digests. Every engine cell digests its jobs' real
//     outputs; sim cells (which execute nothing) carry the reference
//     digest obtained by running each job *alone* on a fresh store.
//     All cells of a report carrying one identical digest is the
//     harness's proof that scan sharing, caching and scheduling order
//     never change what a job computes.

// CompareOptions selects a sub-matrix. The zero value means the full
// matrix the workload supports.
type CompareOptions struct {
	// Schedulers are ParseScheme specs, each optionally labelled
	// "label=spec"; the label (else the scheme's name) keys the cells.
	// nil = the paper's headline trio s3, fifo and mrs1=mrshare: MRShare
	// as one batch of each file's readers, its strongest configuration
	// for a known job set. Only plan-set schemes (s3, fifo, mrshare)
	// run multi-file and DAG workloads.
	Schedulers []string
	// Engines is the execution subset (benchfmt.EngineSim,
	// benchfmt.EngineReal); nil = both, with the engine dropped for
	// meta-content workloads (no bytes to execute) and fault-injecting
	// ones (workers do not retry a failed read).
	Engines []string
	// Caches is the toggle subset; nil = {off, on}, with cache-on
	// dropped when the workload has no cache budget.
	Caches []bool
}

// once rejects a sub-matrix list that names a value twice: its cells
// would be keyed alike.
func once[T comparable](what string, xs []T) error {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return fmt.Errorf("experiments: %s %v is listed twice", what, x)
		}
		seen[x] = true
	}
	return nil
}

// labelHint suggests a label for an unlabelled spec: the scheme's
// initial and its first parameter, so window:30:10 becomes
// w30=window:30:10.
func labelHint(spec string) string {
	kind, params, _ := strings.Cut(spec, ":")
	first, _, _ := strings.Cut(params, ":")
	return kind[:1] + first + "=" + spec
}

// derivedGeometry resolves the block size and segment granularity of
// job id's derived output: inherited from the producing job's own
// input file, recursing through chained stages until a declared file
// grounds it.
func derivedGeometry(wf *workload.File, id scheduler.JobID) (int64, int, error) {
	for i := range wf.Jobs {
		if wf.Jobs[i].ID != id {
			continue
		}
		input := wf.Jobs[i].File
		for j := range wf.Files {
			if wf.Files[j].Name == input {
				return wf.Files[j].BlockBytes, wf.Files[j].SegmentBlocks, nil
			}
		}
		producer, ok := wf.DerivedProducer(input)
		if !ok {
			return 0, 0, fmt.Errorf("experiments: job %d reads unknown file %q", id, input)
		}
		return derivedGeometry(wf, producer)
	}
	return 0, 0, fmt.Errorf("experiments: no job %d in workload", id)
}

// derivedConsumers counts the jobs reading each derived file, keyed by
// producer id — the expectJobs hint AddPlan takes.
func derivedConsumers(wf *workload.File) map[scheduler.JobID]int {
	out := make(map[scheduler.JobID]int)
	for i := range wf.Jobs {
		if producer, ok := wf.DerivedProducer(wf.Jobs[i].File); ok {
			out[producer]++
		}
	}
	return out
}

// RunCompare runs the workload through the configured matrix and
// returns the report, cells in canonical order.
func RunCompare(wf *workload.File, opts CompareOptions) (*benchfmt.Report, error) {
	h := &wf.Header
	specs := opts.Schedulers
	if specs == nil {
		specs = []string{"s3", "fifo", "mrs1=mrshare"}
	}
	schemes := make([]SchemeSpec, len(specs))
	names := make([]string, len(specs))
	specOf := make(map[string]string, len(specs))
	for i, spec := range specs {
		var err error
		if schemes[i], err = parseLabelled(spec); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		names[i] = schemes[i].Name
		if prev, ok := specOf[names[i]]; ok && prev != spec && !strings.Contains(prev+spec, "=") {
			return nil, fmt.Errorf("experiments: scheduler %s is listed twice: %s and %s both take that name; label them, as in %s",
				names[i], prev, spec, labelHint(prev))
		}
		specOf[names[i]] = spec
	}
	if err := errors.Join(once("scheduler", names), once("engine", opts.Engines),
		once("cache", opts.Caches)); err != nil {
		return nil, err
	}
	engines := opts.Engines
	if engines == nil {
		engines = []string{benchfmt.EngineSim, benchfmt.EngineReal}
	}
	hasMeta := slices.ContainsFunc(wf.Files, func(f workload.FileSpec) bool { return f.Content == workload.ContentMeta })
	if hasMeta || h.FaultRate > 0 {
		engines = slices.DeleteFunc(slices.Clone(engines), func(e string) bool { return e == benchfmt.EngineReal })
		if len(engines) == 0 {
			return nil, fmt.Errorf("experiments: workload %q is %s-content or injects faults; engine cells cannot run", h.Name, workload.ContentMeta)
		}
	}
	caches := opts.Caches
	if caches == nil {
		caches = []bool{false}
		if h.CacheMBPerNode > 0 {
			caches = append(caches, true)
		}
	}
	for _, c := range caches {
		if c && h.CacheMBPerNode <= 0 {
			return nil, fmt.Errorf("experiments: workload %q has no cache budget; cache cells cannot run", h.Name)
		}
	}

	// The reference digest: each job run alone on a fresh, uncached,
	// fault-free store (dependencies' outputs pre-materialized for DAG
	// stages). Sim cells carry it directly; engine cells must reproduce
	// it. The reference also measures each derived file's block count —
	// the geometry sim cells price materialized stage outputs under.
	refDigest := ""
	var refBlocks map[scheduler.JobID]int
	if !hasMeta {
		var err error
		refDigest, refBlocks, err = soloReference(wf)
		if err != nil {
			return nil, fmt.Errorf("experiments: solo reference run: %w", err)
		}
	}

	report := &benchfmt.Report{
		Version:        benchfmt.Version,
		Workload:       h.Name,
		WorkloadDigest: wf.Digest(),
	}
	for _, scheme := range schemes {
		for _, engine := range engines {
			for _, cache := range caches {
				key := benchfmt.CellKey{Scheduler: scheme.Name, Engine: engine, Cache: cache}
				cell, err := runCell(wf, scheme, key, refDigest, refBlocks)
				if err != nil {
					return nil, fmt.Errorf("experiments: cell %s: %w", key, err)
				}
				report.Cells = append(report.Cells, cell)
			}
		}
	}
	report.Sort()
	if _, err := report.DigestConsensus(); err != nil {
		return nil, err
	}
	return report, nil
}

// cellEnv is a workload file's virtual-time environment: a store
// holding every declared file, one segment plan per file, the number of
// jobs reading each, a simulated cluster of the header's shape and the
// cost model the header pins.
type cellEnv struct {
	store   *dfs.Store
	plans   []*dfs.SegmentPlan
	readers map[string]int
	cluster *sim.Cluster
	model   sim.CostModel
}

// newCellEnv builds wf's environment from scratch. It is the one
// builder of virtual-time environments: every cell, and every study
// that drives a run by hand, starts from it.
func newCellEnv(wf *workload.File) (*cellEnv, error) {
	h := &wf.Header
	store, err := dfs.NewStore(h.Nodes, h.Replicas)
	if err != nil {
		return nil, err
	}
	env := &cellEnv{
		store:   store,
		readers: make(map[string]int, len(wf.Files)),
		cluster: sim.NewCluster(h.Nodes, h.SlotsPerNode),
		model:   NormalModel(),
	}
	for i := range wf.Files {
		file, err := wf.Files[i].AddTo(store)
		if err != nil {
			return nil, err
		}
		plan, err := dfs.PlanSegments(file, wf.Files[i].SegmentBlocks)
		if err != nil {
			return nil, err
		}
		env.plans = append(env.plans, plan)
	}
	for i := range wf.Jobs {
		env.readers[wf.Jobs[i].File]++
	}
	if h.Cost != nil {
		env.model = *h.Cost
	}
	return env, nil
}

// runCell runs one matrix configuration from a completely fresh
// environment (store, scheduler, executor), so cells cannot contaminate
// each other.
func runCell(wf *workload.File, scheme SchemeSpec, key benchfmt.CellKey, refDigest string, refBlocks map[scheduler.JobID]int) (benchfmt.Cell, error) {
	h := &wf.Header
	env, err := newCellEnv(wf)
	if err != nil {
		return benchfmt.Cell{}, err
	}
	sched, err := scheme.Make(env.plans, env.readers)
	if err != nil {
		return benchfmt.Cell{}, err
	}
	// The cell's pricer: its executor in a sim cell, the timer beside
	// the workers in an engine cell.
	simExec := sim.NewExecutor(env.cluster, env.store, env.model)

	var exec runtime.Executor
	var cluster *remote.Local
	switch key.Engine {
	case benchfmt.EngineSim:
		if key.Cache {
			// A v1 workload (no cachePolicy) prices under plain LRU,
			// which drops the scheduler's scan hints.
			if err := simExec.EnableCachePolicy(int64(h.CacheMBPerNode)<<20, h.CacheFrac, cellPolicy(h)); err != nil {
				return benchfmt.Cell{}, err
			}
			wireScanHints(sched, simExec.HandleScanHint)
		}
		if h.FaultRate > 0 {
			if err := simExec.SetFaultModel(sim.FaultModel{
				Seed:          h.FaultSeed,
				BlockFailRate: h.FaultRate,
				MaxAttempts:   4,
				RetrySec:      5,
			}); err != nil {
				return benchfmt.Cell{}, err
			}
		}
		exec = simExec
	case benchfmt.EngineReal:
		if cluster, err = cellCluster(wf, key.Cache); err != nil {
			return benchfmt.Cell{}, err
		}
		defer cluster.Close()
		if key.Cache {
			wireScanHints(sched, cluster.HandleScanHint)
		}
		// The timer sibling prices the same rounds the workers execute,
		// over the planning store, so engine cells get the sim's
		// deterministic virtual timings.
		exec = &pricedExec{inner: cluster.Master, timer: simExec}
	default:
		return benchfmt.Cell{}, fmt.Errorf("unknown engine %q", key.Engine)
	}

	// Every cell admits as a daemon does, through a LiveSource, here
	// filled before the run: roots arrive at their time; a finished
	// producer's output is materialized into the cell's store, its segment
	// plan registered with the scheduler, and its dependents released into
	// the same circular pass.
	stages := wf.Stages()
	order, err := runtime.Order(stages)
	if err != nil {
		return benchfmt.Cell{}, err
	}
	clock := vclock.NewVirtual()
	src := runtime.NewLiveSourceOn(clock, cellMaterializer(wf, key, env, sched, cluster, refBlocks))
	for _, i := range order {
		if _, err := src.SubmitStage(runtime.Arrival{Job: stages[i].Job, At: stages[i].At}, stages[i].DependsOn, nil); err != nil {
			return benchfmt.Cell{}, err
		}
	}
	src.Close()
	res, err := runtime.Run(sched, exec, src, runtime.Options{Clock: clock})
	if err != nil {
		return benchfmt.Cell{}, err
	}
	if err := src.Err(); err != nil {
		return benchfmt.Cell{}, err
	}
	sum, err := metrics.Summarize(res.Jobs)
	if err != nil {
		return benchfmt.Cell{}, err
	}
	cell := benchfmt.Cell{
		Key:           key,
		TET:           float64(sum.TET),
		ART:           float64(sum.ART),
		P95:           float64(sum.P95),
		Rounds:        res.Rounds,
		CacheHitRatio: res.Cache.HitRatio(),
		FaultRetries:  res.Faults.Retries,
		OutputDigest:  refDigest,
	}
	for _, j := range res.Jobs {
		cell.Jobs = append(cell.Jobs, benchfmt.JobTiming{
			ID:          int(j.ID),
			SubmittedAt: float64(j.AdmittedAt),
			StartedAt:   float64(j.StartedAt),
			CompletedAt: float64(j.DoneAt),
			Response:    float64(j.DoneAt.Sub(j.AdmittedAt)),
		})
	}
	slices.SortFunc(cell.Jobs, func(a, b benchfmt.JobTiming) int { return a.ID - b.ID })
	if cluster != nil {
		// Engine cells earn their digest from the outputs the workers
		// actually produced; a scheduler that corrupted results would
		// disagree with the sim cells' reference digest and fail consensus.
		outputs := make(map[scheduler.JobID][]mapreduce.KV, len(wf.Jobs))
		for i := range wf.Jobs {
			if outputs[wf.Jobs[i].ID], err = cluster.JobOutput(wf.Jobs[i].ID); err != nil {
				return benchfmt.Cell{}, err
			}
		}
		cell.OutputDigest = digestOutputs(outputs)
	}
	return cell, nil
}

// cellCluster boots an engine cell's cluster: the master with every job
// of the workload registered, and one in-process worker per node of the
// header, each generating the workload's files into its own store, with
// a block cache of the header's budget when cache is set.
func cellCluster(wf *workload.File, cache bool) (*remote.Local, error) {
	h := &wf.Header
	stores := make([]*dfs.Store, h.Nodes)
	for n := range stores {
		stores[n] = dfs.MustStore(1, 1)
		for i := range wf.Files {
			if _, err := wf.Files[i].AddTo(stores[n]); err != nil {
				return nil, err
			}
		}
		if cache {
			if _, err := stores[n].EnableCachePolicy(int64(h.CacheMBPerNode)<<20, cellPolicy(h)); err != nil {
				return nil, err
			}
		}
	}
	jobs := make(map[scheduler.JobID]remote.JobRef, len(wf.Jobs))
	for i := range wf.Jobs {
		jobs[wf.Jobs[i].ID] = jobRef(&wf.Jobs[i])
	}
	return remote.StartLocal(jobs, remote.NewStandardRegistry(), stores...)
}

// jobRef names a workload job's program the way the master ships it to
// the workers.
func jobRef(j *workload.FileJob) remote.JobRef {
	return remote.JobRef{Name: j.Meta().Name, Factory: j.Factory, Param: j.WireParam(), NumReduce: j.NumReduce}
}

// cellMaterializer builds the runtime.Materializer for one cell.
// Engine cells materialize as s3cluster does: the producer's output,
// read from the workers that hold it, is written into the planning
// store via mapreduce.StoreResult (uniform padded blocks) and installed
// on every worker. Sim cells, which execute nothing, register priced
// metadata with the block count the solo reference measured — so both
// cells see a derived file of identical geometry and every scan of it
// prices identically. The returned delay is the cost model's
// materialization charge, deferring the dependents' release.
func cellMaterializer(
	wf *workload.File,
	key benchfmt.CellKey,
	env *cellEnv,
	sched scheduler.Scheduler,
	cluster *remote.Local,
	refBlocks map[scheduler.JobID]int,
) runtime.Materializer {
	consumers := derivedConsumers(wf)
	return func(id scheduler.JobID, at vclock.Time) (vclock.Duration, error) {
		n := consumers[id]
		if n == 0 {
			return 0, nil // dependents exist but none read the output (pure ordering)
		}
		name := workload.DerivedFileName(id)
		blockBytes, segBlocks, err := derivedGeometry(wf, id)
		if err != nil {
			return 0, err
		}
		var file *dfs.File
		if cluster != nil {
			out, err := cluster.JobOutput(id)
			if err != nil {
				return 0, err
			}
			if file, err = mapreduce.StoreResult(env.store, name, blockBytes, &mapreduce.Result{Output: out}); err != nil {
				return 0, err
			}
			if want, ok := refBlocks[id]; ok && file.NumBlocks != want {
				return 0, fmt.Errorf("derived file %q is %d blocks, solo reference wrote %d", name, file.NumBlocks, want)
			}
			if err := cluster.InstallStored(env.store, name); err != nil {
				return 0, err
			}
		} else {
			want, ok := refBlocks[id]
			if !ok {
				return 0, fmt.Errorf("no reference block count for job %d's output", id)
			}
			file, err = env.store.AddMetaFile(name, want, blockBytes)
			if err != nil {
				return 0, err
			}
		}
		plan, err := dfs.PlanSegments(file, segBlocks)
		if err != nil {
			return 0, err
		}
		reg, ok := sched.(scheduler.PlanRegistrar)
		if !ok {
			return 0, fmt.Errorf("scheduler %q cannot register files mid-run", key.Scheduler)
		}
		if err := reg.AddPlan(plan, n); err != nil {
			return 0, err
		}
		return env.model.MaterializeDelay(int64(file.NumBlocks) * blockBytes), nil
	}
}

// cellPolicy resolves the header's eviction policy; v1 files (no
// cachePolicy field) get the LRU the old schema implied.
func cellPolicy(h *workload.FileHeader) string {
	if h.CachePolicy == "" {
		return dfs.PolicyLRU
	}
	return h.CachePolicy
}

// wireScanHints connects the scheduler's circular-cursor hints to a
// cache. Only S^3 emits hints; under the other schemes the cache runs
// unhinted, which is plain LRU whatever its policy.
func wireScanHints(sched scheduler.Scheduler, h core.ScanHinter) {
	if s, ok := sched.(*core.MultiFile); ok {
		s.SetScanHinter(h)
	}
}

// soloReference runs every job alone with the sequential reference
// (mapreduce.RunJob), each on a fresh uncached fault-free store, and
// digests the outputs — the ground truth any shared or cached execution
// must reproduce. Jobs run in
// dependency order: a DAG stage's derived input is pre-materialized
// from its producer's solo output before the stage runs, and each
// derived file's block count is recorded — the geometry sim cells
// price materialized stage outputs under.
func soloReference(wf *workload.File) (string, map[scheduler.JobID]int, error) {
	order, err := runtime.Order(wf.Stages())
	if err != nil {
		return "", nil, err
	}
	reg := remote.NewStandardRegistry()
	results := make(map[scheduler.JobID][]mapreduce.KV, len(wf.Jobs))
	refBlocks := make(map[scheduler.JobID]int)
	for _, i := range order {
		j := &wf.Jobs[i]
		env, err := newCellEnv(wf)
		if err != nil {
			return "", nil, err
		}
		if producer, ok := wf.DerivedProducer(j.File); ok {
			res, done := results[producer]
			if !done {
				return "", nil, fmt.Errorf("job %d runs before its producer %d", j.ID, producer)
			}
			blockBytes, _, err := derivedGeometry(wf, producer)
			if err != nil {
				return "", nil, err
			}
			file, err := mapreduce.StoreResult(env.store, j.File, blockBytes, &mapreduce.Result{Output: res})
			if err != nil {
				return "", nil, fmt.Errorf("materializing %q for job %d: %w", j.File, j.ID, err)
			}
			refBlocks[producer] = file.NumBlocks
		}
		ref := jobRef(j)
		mapper, reducer, combiner, err := reg.Build(ref.Factory, ref.Param)
		if err != nil {
			return "", nil, fmt.Errorf("job %d: %w", j.ID, err)
		}
		res, err := mapreduce.RunJob(env.store, mapreduce.JobSpec{Name: ref.Name, File: j.File, Mapper: mapper, Reducer: reducer, Combiner: combiner, NumReduce: j.NumReduce})
		if err != nil {
			return "", nil, fmt.Errorf("job %d: %w", j.ID, err)
		}
		results[j.ID] = res.Output
	}
	return digestOutputs(results), refBlocks, nil
}

// digestOutputs fingerprints job outputs: sha256 over jobs in id order,
// each job's sorted key/value records framed unambiguously.
func digestOutputs(outputs map[scheduler.JobID][]mapreduce.KV) string {
	ids := make([]scheduler.JobID, 0, len(outputs))
	for id := range outputs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	hsh := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(hsh, "job %d %d\n", id, len(outputs[id]))
		for _, kv := range outputs[id] {
			fmt.Fprintf(hsh, "%d %d\n%s%s", len(kv.Key), len(kv.Value), kv.Key, kv.Value)
		}
	}
	return hex.EncodeToString(hsh.Sum(nil))
}

// pricedExec is the engine-cell executor: the inner master has the
// workers do the real work (scans, shuffles, reduces, caching) while the
// timer — a sim executor over the planning store — supplies the round
// durations. The wall clock never reaches the scheduler, so engine runs
// are as deterministic as sim runs, and a sim cell with the same
// scheduler marches through the identical round sequence. The master
// runs each round whole; the timer alone splits it into its two stages.
type pricedExec struct {
	inner *remote.Master
	timer *sim.Executor
}

var (
	_ runtime.StageTimer       = (*pricedExec)(nil)
	_ runtime.FaultStatsSource = (*pricedExec)(nil)
	_ runtime.CacheStatsSource = (*pricedExec)(nil)
)

// ExecRound implements runtime.Executor.
func (p *pricedExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	mapDur, redDur, err := p.ExecStages(r)
	return mapDur + redDur, err
}

// ExecStages implements runtime.StageTimer: the master runs the round,
// then the timer prices it.
func (p *pricedExec) ExecStages(r scheduler.Round) (mapDur, redDur vclock.Duration, err error) {
	if _, err := p.inner.ExecRound(r); err != nil {
		var lost *scheduler.RoundLostError
		if errors.As(err, &lost) {
			// Re-price the lost round's elapsed time deterministically,
			// as its map stage alone; the requeue path must not observe
			// wall time either.
			if mapDur, _, perr := p.timer.ExecStages(r); perr == nil {
				lost.Elapsed = mapDur
			}
		}
		return 0, 0, err
	}
	return p.timer.ExecStages(r)
}

// FaultStats implements runtime.FaultStatsSource.
func (p *pricedExec) FaultStats() metrics.FaultStats { return p.inner.FaultStats() }

// CacheStats implements runtime.CacheStatsSource.
func (p *pricedExec) CacheStats() dfs.CacheStats { return p.inner.CacheStats() }
