package sim

import (
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/workload"
)

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Puts, so a run may or may not find a pooled engine.
var raceEnabled bool

// drainEnginePool empties the engine pool, so the next run builds its
// engine from scratch.
func drainEnginePool() {
	for enginePool.Get() != nil {
	}
}

// The engine's event loop is allocation-free in steady state: the rate
// passes reuse scratch slices, the timer heap is a typed slice, and items
// recycle through the pool. Across runs, the stage slab, items, buckets
// and scratch come back from the engine pool too, so what a run still
// allocates is its caller-owned Result (the struct, its timelines and
// per-job slices) and the run's own bookkeeping — a constant that does not
// grow with stages, nodes or events. LDA on 30 nodes (150 items)
// measures 9 allocations per pooled run and 57 (68 under -race) on a
// fresh engine, which pays for its buffers once; the budgets below are
// those with ~40% headroom. A regression that allocates per stage, per
// item, per event or per rate pass — heap stage states, boxing timers
// through interface{}, rebuilding waterFill scratch, per-pass maps, an
// engine that skips the pool — blows through them immediately.
//
// The fresh-engine budget is checked in every build. The pooled one is
// not checked under -race, where sync.Pool drops a random share of
// engines; CI runs this test without -race as well.
func TestEngineAllocBudget(t *testing.T) {
	c := cluster.NewM4LargeCluster(30)
	job := workload.LDA(c, 1.0)
	run := func() {
		if _, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up once so lazily-built workload/graph caches and the engine
	// pool's first fill don't bill the measured runs.
	run()
	items := job.Graph.Len() * len(c.Nodes)
	const freshBudget, pooledBudget = 95, 13
	fresh := testing.AllocsPerRun(5, func() {
		drainEnginePool()
		run()
	})
	t.Logf("fresh engine: %.0f allocs/run (%d items, budget %d)", fresh, items, freshBudget)
	if fresh > freshBudget {
		t.Errorf("a fresh engine allocates %.0f allocs/run (budget %d): hot path regressed", fresh, freshBudget)
	}
	if raceEnabled {
		return
	}
	pooled := testing.AllocsPerRun(5, run)
	t.Logf("pooled engine: %.0f allocs/run (budget %d)", pooled, pooledBudget)
	if pooled > pooledBudget {
		t.Errorf("a pooled engine allocates %.0f allocs/run (budget %d): hot path or pool reuse regressed", pooled, pooledBudget)
	}
}
