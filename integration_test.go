package delaystage

// Cross-module integration tests: each walks a full user-visible pipeline
// through several packages, the way the CLI tools chain them.

import (
	"bytes"
	"math/rand"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/eventlog"
	"delaystage/internal/geo"
	"delaystage/internal/jobspec"
	"delaystage/internal/profiler"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// tracegen | traceanalyze | replay: generate a trace, round-trip it
// through CSV, rebuild workloads, and verify DelayStage beats naive
// scheduling per job on its slice.
func TestIntegrationTracePipeline(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{Jobs: 40, Seed: 11})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(back.Jobs), len(tr.Jobs))
	}
	stats := trace.Summarize(trace.Analyze(back))
	if stats.JobsWithParallelShare < 0.4 {
		t.Fatalf("implausible parallel share %.2f after round trip", stats.JobsWithParallelShare)
	}

	rng := rand.New(rand.NewSource(3))
	improved, total := 0, 0
	for i := range back.Jobs {
		slice := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
		wl, err := back.Jobs[i].Workload(slice, trace.DefaultSplit, nil)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := core.Compute(core.Options{Cluster: slice, MaxCandidates: 8}, wl)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.K) == 0 {
			continue
		}
		total++
		stock, err := sim.Run(sim.Options{Cluster: slice, TrackNode: -1}, []sim.JobRun{{Job: wl}})
		if err != nil {
			t.Fatal(err)
		}
		delayed, err := sim.Run(sim.Options{Cluster: slice, TrackNode: -1},
			[]sim.JobRun{{Job: wl, Delays: sched.Delays}})
		if err != nil {
			t.Fatal(err)
		}
		if delayed.JCT(0) > stock.JCT(0)*1.001 {
			t.Errorf("job %s regressed: %.1f vs %.1f", wl.Name, delayed.JCT(0), stock.JCT(0))
		}
		if delayed.JCT(0) < stock.JCT(0)*0.999 {
			improved++
		}
	}
	if total == 0 || improved == 0 {
		t.Fatalf("no parallel jobs improved (%d of %d)", improved, total)
	}
	t.Logf("DelayStage improved %d of %d parallel trace jobs", improved, total)
}

// sparklog → jobspec → delaystage: synthesize an event log, convert to a
// job spec, reload it, plan, render DOT.
func TestIntegrationEventlogSpecPipeline(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	truth := workload.SQLJoin(c, 0.2)
	res, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: truth}})
	if err != nil {
		t.Fatal(err)
	}
	l := eventlog.Synthesize(truth, res, 8, rand.New(rand.NewSource(5)))
	var logBuf bytes.Buffer
	if err := eventlog.Write(&logBuf, l); err != nil {
		t.Fatal(err)
	}
	parsed, err := eventlog.Parse(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromLog, err := parsed.Job(c)
	if err != nil {
		t.Fatal(err)
	}

	var specBuf bytes.Buffer
	if err := jobspec.FromJob(fromLog).Write(&specBuf); err != nil {
		t.Fatal(err)
	}
	spec, err := jobspec.Parse(&specBuf)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := spec.Job(c)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Compute(core.Options{Cluster: c}, reloaded)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := jobspec.DOT(reloaded, sched.Delays)
	if err != nil {
		t.Fatal(err)
	}
	if len(dot) == 0 {
		t.Fatal("empty DOT output")
	}
	delayed, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1},
		[]sim.JobRun{{Job: truth, Delays: sched.Delays}})
	if err != nil {
		t.Fatal(err)
	}
	if delayed.JCT(0) > res.JCT(0)*1.01 {
		t.Fatalf("pipeline schedule regressed: %.1f vs %.1f", delayed.JCT(0), res.JCT(0))
	}
}

// profiler → core → sim with every strategy, on a gallery workload.
func TestIntegrationProfiledStrategies(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	truth := workload.PageRank(c, 0.2)
	prof, err := profiler.ProfileJob(truth, profiler.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var jcts []float64
	for _, s := range []scheduler.Strategy{scheduler.Spark{}, scheduler.AggShuffle{}, scheduler.DelayStage{}} {
		plan, err := s.Plan(c, prof.Estimated)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, AggShuffle: plan.AggShuffle},
			[]sim.JobRun{{Job: truth, Delays: plan.Delays}})
		if err != nil {
			t.Fatal(err)
		}
		jcts = append(jcts, res.JCT(0))
	}
	if jcts[2] > jcts[0]*1.01 {
		t.Fatalf("profiled DelayStage (%.1f) lost to Spark (%.1f)", jcts[2], jcts[0])
	}
}

// geo: placement + delays against the topology, end to end with DOT export
// of the placed workload.
func TestIntegrationGeoPipeline(t *testing.T) {
	dc := cluster.Node{ID: 0, Executors: 32, NetBW: cluster.MBps(10000), DiskBW: cluster.MBps(2000)}
	topo := geo.UniformWAN(3, dc, cluster.MBps(500))
	ref := &cluster.Cluster{Nodes: []cluster.Node{dc}}
	wl := workload.ETL(ref, 0.3)
	place, err := geo.BuildPlacement("greedy-WAN", topo, wl)
	if err != nil {
		t.Fatal(err)
	}
	job := &geo.Job{Workload: wl, Placement: place}
	sched, err := geo.Plan(core.Options{MaxCandidates: 12}, topo, job)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := geo.Run(topo, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := geo.Run(topo, job, sched.Delays)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.JCT(0) > stock.JCT(0)*1.001 {
		t.Fatalf("geo schedule regressed: %.1f vs %.1f", delayed.JCT(0), stock.JCT(0))
	}
	// Every stage landed in a real DC and the timelines are causal.
	for _, id := range wl.Graph.Stages() {
		tl := delayed.Timeline(0, id)
		if tl == nil {
			t.Fatalf("stage %d missing timeline", id)
		}
		if tl.End < tl.Start || tl.ReadEnd < tl.Start {
			t.Fatalf("stage %d acausal timeline %+v", id, tl)
		}
		for _, p := range wl.Graph.Parents(id) {
			if tl.Start < delayed.Timeline(0, p).End-1e-6 {
				t.Fatalf("stage %d started before parent %d finished", id, p)
			}
		}
	}
	_ = dag.StageID(0)
}
