package sim

import (
	"math"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

func TestContendedScaling(t *testing.T) {
	e := &engine{engineRun: engineRun{opt: Options{ContentionOverhead: 0.2}}}
	if got := e.contended(100, 1); got != 100 {
		t.Errorf("single consumer: %v, want 100", got)
	}
	if got := e.contended(100, 2); math.Abs(got-100/1.2) > 1e-9 {
		t.Errorf("two consumers: %v, want %v", got, 100/1.2)
	}
	// Saturation: 6 and 60 consumers pay the same overhead.
	if e.contended(100, 6) != e.contended(100, 60) {
		t.Error("overhead must saturate")
	}
	if got := e.contended(100, 100); math.Abs(got-100/1.8) > 1e-9 {
		t.Errorf("saturated overhead: %v, want %v", got, 100/1.8)
	}
}

func TestAppendStepDeduplicates(t *testing.T) {
	var s Series
	s = appendStep(s, 0, 1)
	s = appendStep(s, 1, 1) // same value: dropped
	s = appendStep(s, 2, 3)
	if len(s) != 2 {
		t.Fatalf("series %v, want 2 points", s)
	}
	if s[1].T != 2 || s[1].V != 3 {
		t.Fatalf("series %v", s)
	}
}

func TestTimerHeapOrdering(t *testing.T) {
	var h timerHeap
	h.push(timer{at: 5, seq: 1})
	h.push(timer{at: 1, seq: 2})
	h.push(timer{at: 5, seq: 0})
	first := h.pop()
	if first.at != 1 {
		t.Fatalf("heap order broken: %v", first)
	}
	second := h.pop()
	if second.at != 5 || second.seq != 0 {
		t.Fatalf("equal-time timers must pop in sequence order: %+v", second)
	}
}

func TestTimerHeapManyTimers(t *testing.T) {
	// Exercise siftDown paths with a scrambled insertion order.
	var h timerHeap
	order := []float64{9, 3, 7, 1, 8, 2, 6, 0, 5, 4}
	for i, at := range order {
		h.push(timer{at: at, seq: i})
	}
	for want := 0.0; want < 10; want++ {
		got := h.pop()
		if got.at != want {
			t.Fatalf("pop %v, want %v", got.at, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// A three-stage chain with AggShuffle: the middle stage prefetches from a
// skewed parent and must start reading before the parent completes.
func TestPrefetchStartsBeforeParentEnd(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2, Parents: []dag.StageID{1}})
	p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 50, ComputeSec: 100, WriteSec: 20, Skew: 0.9})
	j := &workload.Job{Name: "pf", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Cluster: c, TrackNode: -1, AggShuffle: true}, []JobRun{{Job: j}})
	if err != nil {
		t.Fatal(err)
	}
	parent, child := res.Timeline(0, 1), res.Timeline(0, 2)
	if child.Start >= parent.End {
		t.Fatalf("child read started at %.1f, after parent end %.1f — no prefetch", child.Start, parent.End)
	}
	// Compute still gated on the parent's completion.
	if child.ReadEnd < parent.End && child.ComputeEnd-child.ReadEnd <= 0 {
		t.Fatal("child compute must not run before data is complete")
	}
}

// Without AggShuffle the same job must not prefetch.
func TestNoPrefetchWithoutAggShuffle(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2, Parents: []dag.StageID{1}})
	p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 50, ComputeSec: 100, WriteSec: 20, Skew: 0.9})
	j := &workload.Job{Name: "np", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	if err != nil {
		t.Fatal(err)
	}
	parent, child := res.Timeline(0, 1), res.Timeline(0, 2)
	if child.Start < parent.End-eps {
		t.Fatalf("child started at %.1f before parent end %.1f without AggShuffle", child.Start, parent.End)
	}
}

// AggShuffle's compute overhead: a prefetched stage processes slightly
// more volume, so with zero-skew parents its JCT is a bit worse.
func TestAggShuffleOverheadApplied(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2, Parents: []dag.StageID{1}})
	p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 50, ComputeSec: 100, WriteSec: 0, Skew: 0})
	j := &workload.Job{Name: "ov", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	plain := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	agg := mustRun(t, Options{Cluster: c, TrackNode: -1, AggShuffle: true}, []JobRun{{Job: j}})
	if agg.JCT(0) <= plain.JCT(0) {
		t.Fatalf("zero-skew prefetch must cost: plain %.1f, agg %.1f", plain.JCT(0), agg.JCT(0))
	}
}

// Cluster-wide tracking produces series bounded by capacity.
func TestTrackClusterSeries(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	j := twoParallelJob(c, 30, 40, 5)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1, TrackCluster: true}, []JobRun{{Job: j}})
	if len(res.Cluster.CPUBusy) == 0 || len(res.Cluster.NetRate) == 0 {
		t.Fatal("cluster series missing")
	}
	for _, s := range res.Cluster.CPUBusy {
		if s.V < 0 || s.V > 1+1e-9 {
			t.Fatalf("cluster CPU fraction %v out of range", s.V)
		}
	}
	total := c.TotalNetBW()
	for _, s := range res.Cluster.NetRate {
		if s.V < 0 || s.V > total+1e-6 {
			t.Fatalf("cluster net rate %v exceeds capacity %v", s.V, total)
		}
	}
}

// Heterogeneous nodes: the slowest NIC gates the stage (Eq. 2 behaviour in
// the simulator).
func TestHeterogeneousNodesSlowestGates(t *testing.T) {
	fast := cluster.Node{ID: 0, Executors: 2, NetBW: cluster.MBps(100), DiskBW: cluster.MBps(80)}
	slow := cluster.Node{ID: 1, Executors: 2, NetBW: cluster.MBps(10), DiskBW: cluster.MBps(80)}
	c := &cluster.Cluster{Nodes: []cluster.Node{fast, slow}}
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	j := &workload.Job{Name: "het", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{
		1: {ShuffleIn: 2 * 100 * cluster.MB, ProcRate: cluster.MBps(1000)},
	}}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	tl := res.Timeline(0, 1)
	// Per-node input 100 MB; the slow node needs 10 s.
	if tl.ReadEnd-tl.Start < 9.9 {
		t.Fatalf("read finished in %.2f s; slow node must gate at 10 s", tl.ReadEnd-tl.Start)
	}
}

// Events counter sanity: symmetric jobs need few events, and the count is
// reported.
func TestEventCountReported(t *testing.T) {
	c := cluster.NewM4LargeCluster(3)
	j := singleStageJob(c, 5, 5, 1)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	if res.Events <= 0 {
		t.Fatal("event count missing")
	}
}
