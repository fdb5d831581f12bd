package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// whatIfFixture is one job as Alg. 1's sim evaluator sees it: the
// evaluator on the job's coarse cluster, a delay vector, and the fork
// point of a candidate scan over stage kid — the snapshot frozen just
// before kid becomes ready, as simulate builds it.
type whatIfFixture struct {
	ev     *simEvaluator
	delays map[dag.StageID]float64
	kid    dag.StageID
	snap   *sim.Snapshot
}

// newWhatIfFixture picks the scanned stage as the middle stage (in
// insertion order) that has parents, delays every other such stage by a
// few seconds, and freezes the scan snapshot.
func newWhatIfFixture(tb testing.TB, c *cluster.Cluster, job *workload.Job) *whatIfFixture {
	tb.Helper()
	f := &whatIfFixture{ev: newSimEvaluator(c, job, true), delays: map[dag.StageID]float64{}}
	var inner []dag.StageID
	for _, id := range job.Graph.StagesView() {
		if len(job.Graph.Stage(id).Parents) > 0 {
			inner = append(inner, id)
		}
	}
	if len(inner) == 0 {
		tb.Fatal("fixture job has no stage with parents")
	}
	f.kid = inner[len(inner)/2]
	for i, id := range inner {
		if id != f.kid {
			f.delays[id] = float64(1 + i%5)
		}
	}
	res, err := f.ev.fullRun(f.delays)
	if err != nil {
		tb.Fatal(err)
	}
	tl := res.Timeline(0, f.kid)
	if tl == nil {
		tb.Fatal("scanned stage missing from the timelines")
	}
	f.snap, err = sim.SnapshotAt(sim.Options{Cluster: f.ev.coarse, TrackNode: -1},
		[]sim.JobRun{{Job: job, Delays: f.delays}}, tl.Ready)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// full runs one from-scratch what-if evaluation.
func (f *whatIfFixture) full(tb testing.TB) float64 {
	res, err := f.ev.fullRun(f.delays)
	if err != nil {
		tb.Fatal(err)
	}
	return jobEnd(res)
}

// fork runs one forked what-if evaluation: the scan snapshot resumed
// under candidate delay x for the scanned stage.
func (f *whatIfFixture) fork(tb testing.TB, x float64) float64 {
	res, err := f.snap.Resume([]sim.DelayUpdate{{Job: 0, Stage: f.kid, Delay: x}})
	if err != nil {
		tb.Fatal(err)
	}
	return jobEnd(res)
}

// benchTraceJob returns a fixed trace DAG for the per-layer bench: the
// first tracegen job (seed 3) with 30–60 stages, on its coarse slice.
func benchTraceJob(tb testing.TB) (*cluster.Cluster, *workload.Job) {
	tb.Helper()
	tr := trace.Generate(trace.GenConfig{Jobs: 400, Seed: 3})
	rng := rand.New(rand.NewSource(3))
	for i := range tr.Jobs {
		if n := len(tr.Jobs[i].Stages); n < 30 || n > 60 {
			continue
		}
		slice := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
		wl, err := tr.Jobs[i].Workload(slice, trace.DefaultSplit, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return slice, wl
	}
	tb.Fatal("no 30–60-stage job in the generated trace")
	return nil, nil
}

var whatIfSink float64

// BenchmarkWhatIfEval times one exact what-if evaluation of Alg. 1 on a
// fixed trace DAG: full is a from-scratch simulation of the job, fork a
// resume of a candidate-scan snapshot (the common case inside a scan).
func BenchmarkWhatIfEval(b *testing.B) {
	c, job := benchTraceJob(b)
	f := newWhatIfFixture(b, c, job)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			whatIfSink = f.full(b)
		}
	})
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			whatIfSink = f.fork(b, float64(i%10))
		}
	})
}

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Puts, so an evaluation may or may not find a pooled
// engine.
var raceEnabled bool

// emptyPools empties every sync.Pool (the engine pool included): pools
// drop their contents over two garbage collections.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestWhatIfEvalAllocBudget: a what-if evaluation's allocations are a
// per-run constant — the engine's buffers come back from the pool and
// only the caller-owned Result is fresh — so they must not grow with the
// job's stage count. A full and a forked evaluation are measured on a
// 20- and an 80-stage DAG; a layout that allocates per stage (a heap
// state per stage, per-stage wiring slices, a per-fork pointer map)
// blows through the budget on the larger one.
//
// An evaluation on a fresh engine pays for its buffers once: about 50
// allocations on 20 stages and 70 on 80 (eight more under -race), growing
// only with the item blocks and buffer doublings a larger job needs; its
// budget is that with ~40% headroom, which a per-stage allocation on the
// 80-stage DAG still exceeds. It is checked in every build; the pooled
// budget is not checked under -race, where sync.Pool drops a random share
// of engines, and CI runs this test without -race as well.
func TestWhatIfEvalAllocBudget(t *testing.T) {
	const budget, freshBudget = 10, 110
	rng := rand.New(rand.NewSource(5))
	tc := sim.Coarsen(cluster.NewTraceCluster(64, 4, rng))
	for _, n := range []int{20, 80} {
		f := newWhatIfFixture(t, tc, workload.RandomJob(fmt.Sprintf("alloc-%d", n), tc, n, rng))
		// Warm the pool so its first fills do not bill the measured runs.
		f.full(t)
		f.fork(t, 3)
		full := testing.AllocsPerRun(5, func() { emptyPools(); f.full(t) })
		fork := testing.AllocsPerRun(5, func() { emptyPools(); f.fork(t, 3) })
		t.Logf("%d stages, fresh engine: full %.0f allocs/eval, fork %.0f allocs/eval", n, full, fork)
		if full > freshBudget || fork > freshBudget {
			t.Errorf("%d stages, fresh engine: full %.0f, fork %.0f allocs/eval; budget %d", n, full, fork, freshBudget)
		}
		if raceEnabled {
			continue
		}
		full = testing.AllocsPerRun(20, func() { f.full(t) })
		fork = testing.AllocsPerRun(20, func() { f.fork(t, 3) })
		t.Logf("%d stages, pooled engine: full %.0f allocs/eval, fork %.0f allocs/eval", n, full, fork)
		if full > budget || fork > budget {
			t.Errorf("%d stages, pooled engine: full %.0f, fork %.0f allocs/eval; budget %d per evaluation regardless of stage count",
				n, full, fork, budget)
		}
	}
}
