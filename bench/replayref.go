package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/metrics"
	"delaystage/internal/perfmodel"
	"delaystage/internal/shardsim"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// shardsimSample caps the worlds the traced pass re-runs through
// shardsim to measure its overhead over sequential sim.Run calls.
const shardsimSample = 2000

// replayRef is the in-process recomputation of a replay run.
type replayRef struct {
	means  []map[string]float64 // per trace: variant key → mean JCT
	failed int
	wall   time.Duration // excluding the heap measurements
	// worlds are the traced pass's first shardsimSample simulations of the
	// last variant; seqSim is their sim.Run time, µs.
	worlds []shardsim.World
	seqSim float64
}

// runReplayReference recomputes cmd/replay's per-variant mean JCTs for
// every trace the way its sequential path does: the same per-job cluster
// slices drawn from -seed, the same planner options and the same
// simulation. The sharded child must agree bit for bit (replay's
// summaries are byte-identical at every shard count). With a tracer it
// records a span around every layer call, shadows the analytic bound tier
// (bound prep and one ScanLower per parallel stage, as the two-tier scan
// does), and re-runs a sample of the worlds through shardsim.
func runReplayReference(rc *runCtx, w replayWorkload, paths []string, tr *tracer) (*replayRef, error) {
	start := time.Now()
	ref := &replayRef{}
	var gcTime time.Duration
	for _, path := range paths {
		means, err := replayTrace(rc, w, path, tr, ref, &gcTime)
		if err != nil {
			return nil, err
		}
		ref.means = append(ref.means, means)
	}
	if len(ref.worlds) > 0 {
		sp := tr.beginShadow("shardsim.run", "shardsim", -1, -1)
		err := shardsim.Run(shardsim.Config{Shards: 2}, len(ref.worlds),
			func(i int) (shardsim.World, error) { return ref.worlds[i], nil },
			func(int, *sim.Result) error { return nil })
		tr.finish(sp)
		if err != nil {
			return nil, err
		}
		tr.count("shardsim.us", tr.spans[sp].End-tr.spans[sp].Start)
		tr.count("shardsim.sequential_us", ref.seqSim)
	}
	ref.wall = time.Since(start) - gcTime
	return ref, nil
}

// replayTrace recomputes one trace.
func replayTrace(rc *runCtx, w replayWorkload, path string, tr *tracer, ref *replayRef,
	gcTime *time.Duration) (map[string]float64, error) {
	heap := func() uint64 {
		t := time.Now()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		*gcTime += time.Since(t)
		return ms.HeapAlloc
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Both passes collect garbage around the parse, so that the traced
	// pass's heap measurement does not spare it collections the untraced
	// pass pays for.
	heap0 := heap()
	sp := tr.begin("trace.parse", "trace", -1, -1)
	t, err := trace.Parse(f)
	tr.finish(sp)
	f.Close()
	if err != nil {
		return nil, err
	}
	n := len(t.Jobs)
	parseHeap := heap() - heap0
	if tr != nil {
		tr.count("trace.parse_heap", float64(parseHeap))
		tr.count("trace.parse_allocs", float64(tr.spans[sp].Allocs))
		tr.count("trace.jobs", float64(n))
	}
	rng := rand.New(rand.NewSource(rc.seed))
	slices := make([]*cluster.Cluster, n)
	sp = tr.begin("cluster.slices", "cluster", -1, -1)
	for i := range slices {
		slices[i] = sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
	}
	tr.finish(sp)

	means := map[string]float64{}
	for vi, v := range w.variants {
		lastVariant := vi == len(w.variants)-1
		jcts := make([]float64, 0, n)
		for i := range t.Jobs {
			sp := tr.begin("trace.workload", "trace", -1, i)
			wl, err := t.Jobs[i].Workload(slices[i], trace.DefaultSplit, nil)
			tr.finish(sp)
			if err != nil {
				return nil, fmt.Errorf("job %s: %w", t.Jobs[i].Name, err)
			}
			var delays map[dag.StageID]float64
			if v != "fuxi" {
				if delays, err = plan(rc, tr, slices[i], wl, i); err != nil {
					return nil, err
				}
			}
			opt := sim.Options{Cluster: slices[i], TrackNode: -1}
			runs := []sim.JobRun{{Job: wl, Delays: delays}}
			sp = tr.begin("sim.run", "sim", -1, i)
			res, err := sim.Run(opt, runs)
			tr.finish(sp)
			if err != nil {
				return nil, err
			}
			tr.count("sim.events", float64(res.Events))
			tr.count("sim.runs", 1)
			if res.Failed(0) != nil {
				ref.failed++
				continue
			}
			jcts = append(jcts, res.JCT(0))
			if tr != nil && lastVariant && len(ref.worlds) < shardsimSample {
				ref.worlds = append(ref.worlds, shardsim.World{Opt: opt, Runs: runs})
				ref.seqSim += tr.spans[sp].End - tr.spans[sp].Start
			}
		}
		means[v] = metrics.NewCDF(jcts).Mean()
	}
	return means, nil
}

// plan runs Alg. 1 for one trace job with cmd/replay's options and, when
// tracing, shadows the bound tier.
func plan(rc *runCtx, tr *tracer, slice *cluster.Cluster, wl *workload.Job, i int) (map[dag.StageID]float64, error) {
	mc := 10
	if wl.Graph.Len() > 60 {
		mc = 6
	}
	sp := tr.begin("core.compute", "core", -1, i)
	sched, err := core.Compute(core.Options{Cluster: slice, Order: core.Descending,
		Seed: rc.seed + int64(i), MaxCandidates: mc}, wl)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return sched.Delays, nil
	}
	tr.count("core.jobs", 1)
	tr.count("core.evals", float64(sched.Evaluations))
	tr.count("core.bounded", float64(sched.Prune.Bounded))
	tr.count("core.pruned", float64(sched.Prune.Pruned))
	tr.count("core.memo_hits", float64(sched.CacheHits))
	tr.count("core.forked", float64(sched.ForkedEvals))
	tr.count("core.full", float64(sched.FullEvals))

	sp = tr.beginShadow("perfmodel.prep", "perfmodel", -1, i)
	b, err := perfmodel.NewBoundEvaluator(sim.Coarsen(slice), wl, perfmodel.BoundConfig{IncludeWorkBound: true})
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.beginShadow("perfmodel.scan", "perfmodel", -1, i)
	for _, k := range sched.K {
		b.ScanLower(k, sched.Delays)
	}
	tr.finish(sp)
	tr.count("perfmodel.scans", float64(len(sched.K)))
	return sched.Delays, nil
}

// replayReferenceChecks compares the child's means for the traces at paths
// with the in-process recomputation and, on a traced run, measures the
// per-layer metrics over them.
func replayReferenceChecks(rc *runCtx, w replayWorkload, paths []string, means []map[string]float64, oc *outcome) error {
	prev := runtime.GOMAXPROCS(1) // the child's setting
	defer runtime.GOMAXPROCS(prev)
	ref, err := runReplayReference(rc, w, paths, nil)
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	// mismatches counts the traces whose per-variant means differ from the
	// child's, plus one if any job failed in process.
	mismatches := func(r *replayRef) int {
		bad := 0
		for k := range means {
			if !sameMeans(r.means[k], means[k]) {
				bad++
			}
		}
		if r.failed > 0 {
			bad++
		}
		return bad
	}
	bad := mismatches(ref)
	oc.check("means-vs-reference", bad == 0,
		"%d of the first round's %d traces' per-variant mean JCTs differ from the in-process recomputation", bad, len(means))
	if !rc.trace {
		return nil
	}
	tr := newTracer()
	traced, err := runReplayReference(rc, w, paths, tr)
	if err != nil {
		return fmt.Errorf("traced recomputation: %w", err)
	}
	bad = mismatches(traced)
	oc.check("traced-means-vs-reference", bad == 0, "%d traces differ in the traced recomputation", bad)
	// A second untraced pass after the traced one: the first runs on a cold
	// heap, so the two bracket the traced pass.
	again, err := runReplayReference(rc, w, paths, nil)
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	ls, m := layerMetrics(oc, tr, traced.wall, (ref.wall+again.wall)/2)
	cnt := tr.counts
	jobs := cnt["trace.jobs"]
	compute := tr.durations("core.compute")
	m["trace.parse_s"] = sum(tr.durations("trace.parse")) / 1e6
	m["trace.parse_heap_mb"] = cnt["trace.parse_heap"] / (1 << 20)
	m["trace.parse_allocs_per_job"] = cnt["trace.parse_allocs"] / jobs
	m["trace.workload_us_per_job"] = spanMean(tr.durations("trace.workload"))
	m["core.compute_ms_per_job"] = spanMean(compute) / 1e3
	if len(compute) > 0 {
		m["core.compute_p90_ms"] = percentile(compute, 0.9) / 1e3
	}
	m["core.evals_per_job"] = ratio(cnt["core.evals"], cnt["core.jobs"])
	m["core.us_per_eval"] = ratio(float64(ls.self["core"].Microseconds()), cnt["core.evals"])
	m["core.prune_ratio"] = ratio(cnt["core.pruned"], cnt["core.bounded"])
	m["core.fork_ratio"] = ratio(cnt["core.forked"], cnt["core.forked"]+cnt["core.full"])
	m["core.memo_hit_ratio"] = ratio(cnt["core.memo_hits"], cnt["core.evals"])
	m["core.allocs_per_eval"] = ratio(float64(ls.allocs["core"]), cnt["core.evals"])
	m["perfmodel.bound_prep_us_per_job"] = ratio(sum(tr.durations("perfmodel.prep")), cnt["core.jobs"])
	m["perfmodel.scan_lower_ns"] = ratio(1e3*sum(tr.durations("perfmodel.scan")), cnt["perfmodel.scans"])
	m["sim.run_ns_per_event"] = ratio(1e3*sum(tr.durations("sim.run")), cnt["sim.events"])
	m["sim.events_per_job"] = ratio(cnt["sim.events"], cnt["sim.runs"])
	m["sim.allocs_per_event"] = ratio(float64(ls.allocs["sim"]), cnt["sim.events"])
	m["shardsim.overhead_pct"] = 100 * (ratio(cnt["shardsim.us"], cnt["shardsim.sequential_us"]) - 1)
	return nil
}
