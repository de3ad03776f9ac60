// Command s3cluster runs the distributed execution substrate: workers
// serving map/reduce tasks over TCP, and a master driving them through
// the S^3 scheduler. Three roles:
//
//	s3cluster -role demo                 # master and -nodes workers in one process
//	s3cluster -role master -control 127.0.0.1:7000 -minworkers 2
//	s3cluster -role worker -master 127.0.0.1:7000
//
// Workers dial the master's control address, register with their
// identity and block inventory, and heartbeat; a worker killed and
// restarted re-registers and rejoins the run in flight, while the
// master requeues whatever rounds its death interrupted.
//
// Master and demo run their -jobs seed through the admission path HTTP
// submissions take; without -serve admission then closes, and the run
// drains, prints its summary and exits. With -serve, the master (or demo) stays up as a
// daemon after its initial jobs finish and accepts live submissions over
// HTTP:
//
//	s3cluster -role demo -serve -status 127.0.0.1:8080
//	curl -d '{"factory":"wordcount","param":"th"}' http://127.0.0.1:8080/jobs
//	curl http://127.0.0.1:8080/jobs/4
//
// Live jobs join the scheduler's current circular pass at the next
// round boundary, sharing scans with whatever is already running.
// Interrupt (SIGINT) closes admission and drains in-flight jobs. Every
// time the master reports — job stamps, metrics, spans, journal records —
// is wall seconds since its journal's first master booted.
//
// Workers generate their corpus locally from the shared seed — the
// distributed analogue of HDFS data locality: block bytes never cross
// the network, only task descriptions and intermediate records.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/metrics"
	"s3sched/internal/pipeline"
	"s3sched/internal/remote"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/status"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

var (
	role         = flag.String("role", "demo", "demo | worker | master")
	listen       = flag.String("listen", "127.0.0.1:0", "worker: address to serve tasks on")
	masterAddr   = flag.String("master", "", "worker: master control address to register with (registration mode)")
	workerID     = flag.String("id", "", "worker: stable identity for registration (default worker@<task address>)")
	ctrlAddr     = flag.String("control", "", "master: control-plane listen address for worker registration ")
	minWorkers   = flag.Int("minworkers", 1, "master: registered workers to wait for before driving rounds")
	hb           = flag.Duration("hb", remote.DefaultHeartbeat, "worker: heartbeat interval; master: expected worker heartbeat interval (suspect/dead deadlines scale from it)")
	blocks       = flag.Int("blocks", 24, "corpus blocks (must match across the cluster)")
	blockSize    = flag.Int64("blocksize", 16<<10, "corpus block size in bytes")
	seed         = flag.Int64("seed", 7, "corpus generator seed (must match across the cluster)")
	jobs         = flag.Int("jobs", 3, "master/demo: number of initial wordcount jobs")
	demoN        = flag.Int("nodes", 3, "demo: in-process worker count")
	statAddr     = flag.String("status", "", "master/demo: serve a live status dashboard, Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
	traceJSON    = flag.String("tracejson", "", "master/demo: write the run's span tree as Chrome trace-event JSON to this file")
	cacheMB      = flag.Int64("cachemb", 0, "worker/demo: per-worker block-cache budget in MB (0 = caching off)")
	serve        = flag.Bool("serve", false, "master/demo: stay up as a daemon accepting live job submissions via POST /jobs on the status address; SIGINT drains and exits")
	journalPath  = flag.String("journal", "", "master/demo: write-ahead journal path; admissions and round commits are logged so a restart on the same path recovers in-flight jobs")
	fsyncMode    = flag.String("fsync", "always", "master/demo: journal fsync policy: always (survives machine crashes) or never (survives process crashes only, faster)")
	taskDeadline = flag.Duration("taskdeadline", 0, "master/demo: per-call worker task deadline; an expired call counts as a transport failure and fails over (0 = no deadline)")
)

// checkFlags rejects numeric flag values no role can run with.
func checkFlags() error {
	for _, f := range []struct {
		name   string
		v, min int64
	}{
		{"jobs", int64(*jobs), 0},
		{"nodes", int64(*demoN), 1},
		{"blocks", int64(*blocks), 1},
		{"blocksize", *blockSize, 1},
		{"minworkers", int64(*minWorkers), 1},
		{"hb", int64(*hb), 0},
		{"taskdeadline", int64(*taskDeadline), 0},
		{"cachemb", *cacheMB, 0},
	} {
		if f.v < f.min {
			return fmt.Errorf("-%s %v: must be at least %d", f.name, flag.Lookup(f.name).Value, f.min)
		}
	}
	return nil
}

func main() {
	flag.Parse()
	// Before any listener opens: a bad value is a usage error (exit 2).
	if err := checkFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "s3cluster:", err)
		os.Exit(2)
	}
	var err error
	switch *role {
	case "worker":
		err = runWorker()
	case "master":
		err = runMaster()
	case "demo":
		err = runDemo()
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3cluster:", err)
		os.Exit(1)
	}
}

func workerStore() (*dfs.Store, error) {
	store, err := dfs.NewStore(1, 1)
	if err != nil {
		return nil, err
	}
	if _, err := workload.AddTextFile(store, "corpus", *blocks, *blockSize, *seed); err != nil {
		return nil, err
	}
	// The lineitem table backs the selection/aggregation factories. Both
	// files derive from the shared seed, so every worker regenerates
	// byte-identical blocks and any worker can serve any block after a
	// failover.
	if _, err := workload.AddLineitemFile(store, "lineitem", *blocks, *blockSize, *seed); err != nil {
		return nil, err
	}
	if *cacheMB > 0 {
		// The cursor policy is plain LRU until the master's tasks bring hints.
		if _, err := store.EnableCachePolicy(*cacheMB<<20, dfs.PolicyCursor); err != nil {
			return nil, err
		}
	}
	return store, nil
}

func runWorker() error {
	store, err := workerStore()
	if err != nil {
		return err
	}
	w := remote.NewWorker(store, remote.NewStandardRegistry())
	addr, err := w.Serve(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("worker serving corpus (%d x %d B, seed %d) on %s\n", *blocks, *blockSize, *seed, addr)
	if *masterAddr != "" {
		opts := remote.RegisterOptions{ID: *workerID, Heartbeat: *hb}
		if err := w.Register(*masterAddr, opts); err != nil {
			w.Close()
			return err
		}
		fmt.Printf("registering with master %s (heartbeat %v)\n", *masterAddr, *hb)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	return w.Close()
}

func runMaster() error {
	if *ctrlAddr == "" {
		return fmt.Errorf("master needs -control, the address workers register at")
	}
	// Listen for worker registrations and gate round-driving on the
	// expected cluster size. The control-plane deadlines scale from the
	// heartbeat interval the workers were told to use.
	master := remote.NewMaster(nil)
	cfg := remote.ControlConfig{
		SuspectAfter: *hb * 5 / 2,
		DeadAfter:    *hb * 5,
	}
	bound, err := master.ListenControl(*ctrlAddr, cfg)
	if err != nil {
		return err
	}
	defer master.Close()
	fmt.Printf("control plane on %s; waiting for %d worker(s)\n", bound, *minWorkers)
	if err := master.WaitForWorkers(*minWorkers, 5*time.Minute); err != nil {
		return err
	}
	return drive(master)
}

func runDemo() error {
	stores := make([]*dfs.Store, *demoN)
	for i := range stores {
		var err error
		if stores[i], err = workerStore(); err != nil {
			return err
		}
	}
	cluster, err := remote.StartLocal(nil, remote.NewStandardRegistry(), stores...)
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Printf("demo: %d in-process workers registered with the master's control plane\n", *demoN)
	return drive(cluster.Master)
}

// clusterAdmission adapts the runtime's live admission queue to the
// status server's HTTP API: it refuses every job a worker would refuse,
// and registers the JobRef with the master inside the source's
// pre-admission hook (so the engine can never race ahead of
// registration).
type clusterAdmission struct {
	src *runtime.LiveSource
	// dag wraps src with dependency tracking: jobs submitted with
	// dependsOn are held until their producers finish and materialize.
	dag    *pipeline.LiveDAG
	master *remote.Master
	// registry is the one every worker runs. A job's own error fails the
	// whole run, so check builds each job with it before anything is
	// journaled.
	registry *remote.Registry
	// journal, when set, gets a job-admitted record inside the same
	// pre-admission hook — written (and fsynced, per policy) before the
	// submission is acknowledged, so an acked job survives a crash.
	journal *journal.Journal
}

// factoryFile routes a job factory to the file it scans: wordcount
// reads the text corpus, the TPC-H-shaped factories read the lineitem
// table. Unknown factories never get here (admission checks first).
func factoryFile(factory string) string {
	switch factory {
	case "selection", "aggregation":
		return "lineitem"
	default:
		return "corpus"
	}
}

func newClusterAdmission(src *runtime.LiveSource, dag *pipeline.LiveDAG, master *remote.Master) *clusterAdmission {
	return &clusterAdmission{src: src, dag: dag, master: master, registry: remote.NewStandardRegistry()}
}

// check returns why a worker would refuse ref, or nil. Its factory must
// build with its parameter, and a topk must read the key\tcount lines of
// a counting producer: it scans the output of deps[0], and a selection's
// output is map-only rows.
func (a *clusterAdmission) check(ref remote.JobRef, deps []scheduler.JobID) error {
	if _, _, _, err := a.registry.Build(ref.Factory, ref.Param); err != nil {
		return err
	}
	if ref.Factory != "topk" {
		return nil
	}
	if len(deps) == 0 {
		return fmt.Errorf("factory %q scans another job's materialized output; submit it with dependsOn", ref.Factory)
	}
	if p, ok := a.master.Job(deps[0]); ok && p.Factory == "selection" {
		return fmt.Errorf("topk counts its first dependency's output, and job %d is a selection: its values are rows, not counts", deps[0])
	}
	return nil
}

// SubmitJob implements status.Admission.
func (a *clusterAdmission) SubmitJob(req status.JobRequest) (scheduler.JobID, error) {
	factory := req.Factory
	if factory == "" {
		factory = "wordcount"
	}
	deps := append([]scheduler.JobID(nil), req.DependsOn...)
	name := req.Name
	if name == "" {
		if req.Param != "" {
			name = fmt.Sprintf("%s-%s", factory, req.Param)
		} else {
			name = factory
		}
	}
	numReduce := req.NumReduce
	if numReduce <= 0 {
		numReduce = 2
	}
	ref := remote.JobRef{Name: name, Factory: factory, Param: req.Param, NumReduce: numReduce}
	if err := a.check(ref, deps); err != nil {
		return 0, err
	}
	meta := scheduler.JobMeta{
		Name:     name,
		File:     factoryFile(factory),
		Weight:   req.Weight,
		Priority: req.Priority,
	}
	if len(deps) > 0 {
		// A dependent stage scans its first producer's materialized
		// output; the remaining dependencies are precedence-only.
		meta.File = workload.DerivedFileName(deps[0])
	}
	return a.submitStage(meta, ref, deps)
}

// submitStage runs the admission protocol for one job: journal the
// admission (write-ahead — a crash after the ack must still know the
// job and its dependencies) and register its program with the master,
// both inside the source's pre-admission hook so the engine can never
// see a half-registered job. A journal append failure
// rejects the submission. Jobs with unfinished dependencies are held by
// the DAG layer and surface as "waiting" on the status API.
func (a *clusterAdmission) submitStage(meta scheduler.JobMeta, ref remote.JobRef, deps []scheduler.JobID) (scheduler.JobID, error) {
	return a.dag.SubmitStage(meta, deps, func(id scheduler.JobID) error {
		if a.journal != nil {
			m := meta
			m.ID = id
			rec := journal.JobAdmittedRecord{
				ID: id, Name: ref.Name, Factory: ref.Factory,
				Param: ref.Param, NumReduce: ref.NumReduce, Meta: m,
				DependsOn: deps,
			}
			if err := a.journal.AppendRecord(journal.KindJobAdmitted, rec); err != nil {
				return fmt.Errorf("journaling admission: %w", err)
			}
		}
		return a.master.RegisterJob(id, ref)
	})
}

// JobStatus implements status.Admission.
func (a *clusterAdmission) JobStatus(id scheduler.JobID) (runtime.JobStatus, bool) {
	return a.src.Status(id)
}

// Jobs implements status.Admission.
func (a *clusterAdmission) Jobs() []runtime.JobStatus {
	return a.src.Jobs()
}

func drive(master *remote.Master) error {
	if *taskDeadline > 0 {
		master.SetTaskDeadline(*taskDeadline)
	}
	reg := metrics.NewRegistry()
	rm := metrics.NewRunMetrics(reg)
	master.SetRegistry(reg)
	opts := runtime.Options{Metrics: rm}

	// The journal comes first: a segment plan must match what it recorded.
	var jnl *journal.Journal
	var recorded *journal.MasterState
	if *journalPath != "" {
		pol, err := journal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		var replayed *journal.Replayed
		jnl, replayed, err = journal.Open(*journalPath, journal.Options{
			Sync: pol,
			OnAppend: func(st journal.Stats) {
				rm.JournalAppends.Inc()
				rm.JournalBytes.Set(float64(st.Bytes))
			},
		})
		if err != nil {
			return err
		}
		defer jnl.Close()
		if replayed.Corruption != nil {
			fmt.Printf("journal: repaired torn tail (%v); %d intact record(s) kept\n",
				replayed.Corruption, len(replayed.Entries))
		}
		if len(replayed.Entries) > 0 {
			if recorded, err = journal.ReduceEntries(replayed.Entries); err != nil {
				return fmt.Errorf("recovering from %s: %w", *journalPath, err)
			}
		}
		master.SetJournal(jnl)
		opts.Commits = &journalCommits{j: jnl}
	}
	if recorded != nil && recorded.Epoch != 0 {
		// The journal's stash epoch, and the zero of the clock its
		// records were stamped on.
		master.RestoreEpoch(recorded.Epoch)
	}
	clock := master.Clock()
	opts.Clock = clock

	// The scheduler's segment plans: metadata only, matching the two
	// files every worker serves (text corpus + lineitem table), a segment
	// as wide as the map slots of the workers waited for.
	workers, slots := master.MapSlots()
	width := func(file string, blocks int) (int, error) { return planWidth(file, blocks, slots, recorded) }
	planStore, err := dfs.NewStore(workers, 1)
	if err != nil {
		return fmt.Errorf("planning store for %d workers: %w", workers, err)
	}
	var plans []*dfs.SegmentPlan
	for _, name := range []string{"corpus", "lineitem"} {
		f, err := planStore.AddMetaFile(name, *blocks, *blockSize)
		if err != nil {
			return err
		}
		w, err := width(name, *blocks)
		if err != nil {
			return err
		}
		plan, err := dfs.PlanSegments(f, w)
		if err != nil {
			return err
		}
		plans = append(plans, plan)
	}
	origin := ""
	if plans[0].BlocksPerSegment() != slots {
		origin = "journal, not the "
	}
	fmt.Printf("plan width %d = %s%d map slots on %d workers\n", plans[0].BlocksPerSegment(), origin, slots, workers)

	var spans *trace.Log
	if *traceJSON != "" {
		spans, err = trace.New(1 << 16)
		if err != nil {
			return err
		}
		opts.Spans = spans
		master.SetTrace(spans)
	}
	// The scheduler shares the span log so JQM job-lifetime spans land
	// in the same trace as the driver's round/stage spans.
	sched, err := core.NewMultiFile(plans, spans)
	if err != nil {
		return err
	}
	// Each cursor advance's hint rides the file's next map tasks. Wired
	// before any recovery; RestoreState and AddPlan keep it.
	sched.SetScanHinter(master.HandleScanHint)

	// remat rebuilds one finished job's output as a scannable derived
	// file; the DAG layer invokes it on the engine goroutine between
	// rounds, and recovery invokes it directly to restore materialized
	// stages before the engine starts.
	remat := func(id scheduler.JobID) error {
		return materializeStage(master, sched, planStore, jnl, width, id)
	}
	src := runtime.NewLiveSourceOn(clock)
	dag := pipeline.NewLiveDAG(src, func(id scheduler.JobID, _ vclock.Time) (vclock.Duration, error) {
		err := remat(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "s3cluster: job %d's output cannot become a file, so the jobs that read it fail: %v\n", id, err)
		}
		return 0, err
	})
	adm := newClusterAdmission(src, dag, master)
	adm.journal = jnl
	statusAddr := *statAddr
	if *serve && statusAddr == "" {
		// The daemon is pointless without its HTTP surface.
		statusAddr = "127.0.0.1:8080"
	}
	var srv *status.Server
	if statusAddr != "" {
		srv = status.NewServer(sched.Name())
		srv.SetRegistry(reg)
		srv.SetCluster(master)
		srv.SetResults(master)
		srv.SetAdmission(adm)
		addr, err := srv.Serve(statusAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("status dashboard: http://%s/ (also /metrics, /cluster, /debug/pprof/)\n", addr)
		if *serve {
			fmt.Printf("job admission: POST http://%s/jobs accepts {\"factory\",\"param\",...}; GET /jobs lists\n", addr)
		}
		opts.Hooks = srv.Hooks(sched)
	}

	if recorded != nil {
		// Without the journal: what re-materialising would write is what is being replayed.
		quiet := func(id scheduler.JobID) error { return materializeStage(master, sched, planStore, nil, width, id) }
		rep, err := recoverFromJournal(jnl, recorded, sched, master, dag, adm, quiet, &opts)
		if err != nil {
			return fmt.Errorf("recovering from %s: %w", *journalPath, err)
		}
		nth := rep.state.Recoveries + 1
		fmt.Printf("journal recovery #%d from %s: %d job(s) resumed mid-pass, %d resubmitted, %d already settled\n",
			nth, *journalPath, rep.resumed, rep.restarted, rep.settled)
		rm.Recoveries.Add(float64(nth))
		rm.JobsRecovered.Add(float64(rep.resumed + rep.restarted))
		spans.Addf(clock.Now(), trace.JournalRecovered, -1, -1,
			"recovery #%d: %d resumed, %d restarted", nth, rep.resumed, rep.restarted)
		if srv != nil {
			srv.SetRecovery(status.RecoveryInfo{
				Recoveries:    nth,
				JobsResumed:   rep.resumed,
				JobsRestarted: rep.restarted,
				JournalPath:   *journalPath,
			})
		}
	}
	if jnl != nil && (recorded == nil || recorded.Epoch == 0) {
		// A new journal, or one older than the record: whoever recovers
		// from it next resumes on this master's stash epoch and clock.
		if err := jnl.AppendRecord(journal.KindMasterEpoch, journal.MasterEpochRecord{Epoch: master.Epoch()}); err != nil {
			return fmt.Errorf("journaling the master epoch: %w", err)
		}
	}
	if recorded == nil {
		// Seed the initial workload through the same admission path
		// HTTP submissions take. A recovered boot skips seeding: its
		// workload is whatever the journal says was in flight.
		prefixes := workload.DistinctPrefixes(*jobs)
		for i := 0; i < *jobs; i++ {
			if _, err := adm.SubmitJob(status.JobRequest{Factory: "wordcount", Param: prefixes[i]}); err != nil {
				return err
			}
		}
	}
	if !*serve {
		// A batch run admits its seed and nothing after it: the engine
		// drains what is queued and returns.
		src.Close()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	if jnl != nil {
		// With a journal, SIGTERM means "checkpoint and yield": the
		// engine stops at the next round boundary, the scheduler
		// snapshot lands in a checkpoint record, and a later boot on
		// the same journal resumes the pass. SIGINT still drains.
		stop := make(chan struct{})
		opts.Stop = stop
		term := make(chan os.Signal, 1)
		signal.Notify(term, syscall.SIGTERM)
		go func() {
			<-term
			signal.Stop(term)
			fmt.Println("sigterm: checkpointing at the next round boundary")
			close(stop)
			src.Close()
		}()
	} else {
		// Without a journal a checkpoint would be lost anyway, so
		// SIGTERM degrades to the SIGINT drain.
		signal.Notify(sig, syscall.SIGTERM)
	}
	go func() {
		<-sig
		signal.Stop(sig)
		fmt.Println("interrupt: closing admission, draining in-flight jobs")
		src.Close()
	}()
	// The engine sees the DAG wrapper: arrivals flow through it so
	// deferred materializations drain on the engine goroutine, and
	// its JobTracker hooks release (or cascade-fail) dependents as
	// producers settle.
	res, err := runtime.Run(sched, master, dag, opts)
	if err != nil {
		return err
	}
	if res.Stopped {
		// Graceful SIGTERM stop: persist the between-rounds scheduler
		// state so the next boot resumes instead of re-running settled
		// segments.
		snap, serr := sched.StateSnapshot()
		if serr != nil {
			return fmt.Errorf("shutdown checkpoint: %w", serr)
		}
		rec := journal.CheckpointRecord{At: res.End, Requeues: res.Requeues, Snapshot: &snap}
		if aerr := jnl.AppendRecord(journal.KindCheckpoint, rec); aerr != nil {
			return fmt.Errorf("writing shutdown checkpoint: %w", aerr)
		}
		fmt.Printf("checkpoint written after %d round(s): %d job(s) pending; restart with -journal %s to resume\n",
			res.Rounds, sched.PendingJobs(), *journalPath)
	}
	if spans != nil {
		out, err := os.Create(*traceJSON)
		if err != nil {
			return err
		}
		if err := spans.WriteChromeTrace(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *traceJSON)
	}
	if srv != nil {
		tet, tErr := res.Metrics.TET()
		art, aErr := res.Metrics.ART()
		srv.Update(func(st *status.State) {
			st.RunComplete = !res.Stopped
			if tErr == nil {
				st.TETSeconds = tet.Seconds()
			}
			if aErr == nil {
				st.ARTSeconds = art.Seconds()
			}
		})
	}
	fmt.Printf("completed %d jobs in %d rounds\n", res.Metrics.Jobs(), res.Rounds)

	stats, err := master.WorkerStats()
	if err != nil {
		return err
	}
	var reads, fetched, stashed, held, evicted int64
	var cache metrics.CacheStats
	for _, st := range stats {
		fmt.Printf("worker %s: %d block reads, %d map tasks in %d passes, %d reduce tasks", st.Worker, st.BlockReads, st.MapTasks, st.MapPasses, st.ReduceTasks)
		if st.CacheHits+st.CacheMisses > 0 {
			fmt.Printf(", %d cache hits / %d misses", st.CacheHits, st.CacheMisses)
		}
		fmt.Println()
		reads, fetched, stashed = reads+st.BlockReads, fetched+st.ShuffleFetchedBytes, stashed+st.StashBytes
		held, evicted = held+st.ResultBytes, evicted+st.ResultEvictions
		cache.Add(st.Cache())
	}
	fmt.Printf("cluster block reads: %d (isolated jobs would need %d)\n", reads, int64(len(src.Jobs()))*int64(*blocks))
	if cache.Hits+cache.Misses > 0 {
		fmt.Printf("cluster block cache: %d hits / %d misses (%.1f%% hit ratio)\n", cache.Hits, cache.Misses, 100*cache.HitRatio())
	}
	repairs, retries := master.ShuffleRepairs()
	fmt.Printf("cluster shuffle: %d bytes fetched worker to worker, %d still stashed, %d repair maps, %d reduce retries\n", fetched, stashed, repairs, retries)
	if srv != nil && cache.Hits+cache.Misses > 0 {
		srv.SetCache(cache)
	}
	recomputes, _ := master.ResultRecomputes()
	fmt.Printf("cluster results: %d bytes held on the workers, %d evictions, %d recomputes\n", held, evicted, recomputes)
	if !*serve { // a daemon's clients read outputs over HTTP, and an evicted one costs a pass
		for _, job := range src.Jobs() {
			if out, err := master.JobOutput(job.ID); err == nil {
				fmt.Printf("job %d (%s): %d output keys\n", job.ID, job.Name, len(out))
			}
		}
	}
	return nil
}
