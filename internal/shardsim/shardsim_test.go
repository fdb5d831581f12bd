package shardsim

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/faults"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// testWorlds prepares n deterministic, disjoint worlds: every stochastic
// draw happens here, sequentially, so build(i) is a pure function of i.
// Half the worlds run fault-free on a coarse slice (the replay shape);
// the other half run the chaos regime on a 4-machine slice (crashes,
// stragglers, slow nodes, speculation, blacklisting). World 5 is a paper
// workload instead: DelayStage-planned LDA on 8 m4.large nodes with task
// failures and speculation, the single-job run cmd/simulate performs.
func testWorlds(t testing.TB, n int) []World {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	worlds := make([]World, n)
	for i := range worlds {
		if i == 5 {
			worlds[i] = ldaWorld(t)
			continue
		}
		if i%2 == 0 {
			slice := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
			job := workload.RandomJob(fmt.Sprintf("w%d", i), slice, 4+i%5, rng)
			worlds[i] = World{
				Opt:  sim.Options{Cluster: slice, TrackNode: -1},
				Runs: []sim.JobRun{{Job: job, Arrival: float64(i) * 10}},
			}
			continue
		}
		slice := cluster.NewTraceCluster(4, 4, rng)
		job := workload.RandomJob(fmt.Sprintf("w%d", i), slice, 4+i%5, rng)
		inj, err := faults.NewInjector(faults.FaultPlan{
			Seed: int64(i), TaskFailureProb: 0.05, StragglerFrac: 0.25, StragglerFactor: 3,
			SlowNodeFrac: 0.25, SlowNodeFactor: 2.5, NodeMTTF: 5000, MTTFHorizon: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = World{
			Opt: sim.Options{Cluster: slice, TrackNode: -1, Faults: inj,
				MaxAttempts: 8, Speculation: true, BlacklistAfter: 3},
			Runs: []sim.JobRun{{Job: job, Arrival: float64(i) * 10}},
		}
	}
	return worlds
}

// ldaWorld is `simulate -workload LDA -nodes 8 -fault-rate 0.05
// -speculate` as a world: the paper's LDA job, planned by Alg. 1, on 8
// m4.large nodes with per-partition task failures and speculative clones.
func ldaWorld(t testing.TB) World {
	t.Helper()
	c := cluster.NewM4LargeCluster(8)
	job := workload.PaperWorkloads(c, 1)["LDA"]
	sched, err := core.Compute(core.Options{Cluster: c}, job)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.FaultPlan{Seed: 1, TaskFailureProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return World{
		Opt:  sim.Options{Cluster: c, TrackNode: 0, Faults: inj, Speculation: true},
		Runs: []sim.JobRun{{Job: job, Delays: sched.Delays}},
	}
}

// outcome is the reduced per-world record the invariance tests compare.
type outcome struct {
	JCT    float64
	Events int
	CPU    float64
	Failed bool
}

func runWorlds(t testing.TB, cfg Config, worlds []World) []byte {
	t.Helper()
	slots := make([]outcome, len(worlds))
	err := Run(cfg, len(worlds),
		func(i int) (World, error) { return worlds[i], nil },
		func(i int, res *sim.Result) error {
			slots[i] = outcome{JCT: res.JCT(0), Events: res.Events,
				CPU: res.AvgCPUUtil, Failed: res.Failed(0) != nil}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(slots)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestShardCountInvariance is the tentpole acceptance property: the same
// worlds reduced through 1, 3, 4 and 8 shards produce byte-identical JSON.
// Run under -race in CI, this doubles as the race check on the worker
// pool.
func TestShardCountInvariance(t *testing.T) {
	worlds := testWorlds(t, 30)
	ref := runWorlds(t, Config{Shards: 1}, worlds)
	for _, shards := range []int{3, 4, 8} {
		if got := runWorlds(t, Config{Shards: shards}, worlds); string(got) != string(ref) {
			t.Errorf("shards=%d: output differs from shards=1", shards)
		}
	}
}

// unevenWorlds mixes worlds of very uneven length: the PageRank gallery
// job on 8 m4.large nodes at every fifth index, tiny trace jobs on
// two-machine slices everywhere else. Later tiny worlds finish long before
// an earlier PageRank world does.
func unevenWorlds(t testing.TB, n int) []World {
	t.Helper()
	tr := trace.Generate(trace.GenConfig{Jobs: n, Seed: 4, MaxStages: 6})
	rng := rand.New(rand.NewSource(4))
	worlds := make([]World, n)
	for i := range worlds {
		if i%5 == 0 {
			c := cluster.NewM4LargeCluster(8)
			worlds[i] = World{Opt: sim.Options{Cluster: c, TrackNode: -1},
				Runs: []sim.JobRun{{Job: workload.PageRank(c, 1)}}}
			continue
		}
		slice := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
		job, err := tr.Jobs[i].Workload(slice, trace.DefaultSplit, nil)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = World{Opt: sim.Options{Cluster: slice, TrackNode: -1},
			Runs: []sim.JobRun{{Job: job}}}
	}
	return worlds
}

// TestShardReduceInIndexOrder: however unevenly the worlds run, reduce
// sees 0…n−1 exactly once each, in order, and never two calls at a time.
// The counters are plain ints on purpose: under -race, two overlapping
// reduce calls are a reported data race.
func TestShardReduceInIndexOrder(t *testing.T) {
	worlds := unevenWorlds(t, 40)
	for _, shards := range []int{1, 4, 8} {
		next, active := 0, 0
		err := Run(Config{Shards: shards}, len(worlds),
			func(i int) (World, error) { return worlds[i], nil },
			func(i int, res *sim.Result) error {
				active++
				if active != 1 {
					t.Errorf("shards=%d: %d reduce calls at once", shards, active)
				}
				if i != next {
					t.Errorf("shards=%d: reduce(%d), want reduce(%d)", shards, i, next)
				}
				next = i + 1
				runtime.Gosched()
				active--
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if next != len(worlds) {
			t.Errorf("shards=%d: reduced through %d, want %d", shards, next, len(worlds))
		}
	}
}

// TestShardMatchesDirectRun anchors the whole construction: every world's
// reduced result must be DeepEqual to simulating that world alone.
func TestShardMatchesDirectRun(t *testing.T) {
	worlds := testWorlds(t, 12)
	got := make([]*sim.Result, len(worlds))
	err := Run(Config{Shards: 4}, len(worlds),
		func(i int) (World, error) { return worlds[i], nil },
		func(i int, res *sim.Result) error { got[i] = res; return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range worlds {
		ref, err := sim.Run(w.Opt, w.Runs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got[i]) {
			t.Errorf("world %d: sharded result differs from direct sim.Run", i)
		}
	}
}

// TestShardErrorDeterministic: the reported failure is the lowest failing
// world index at every shard count.
func TestShardErrorDeterministic(t *testing.T) {
	worlds := testWorlds(t, 10)
	build := func(i int) (World, error) {
		if i == 7 || i == 3 {
			return World{}, fmt.Errorf("boom %d", i)
		}
		return worlds[i], nil
	}
	for _, cfg := range []Config{{Shards: 1}, {Shards: 4}, {Shards: 8}} {
		err := Run(cfg, len(worlds), build, func(int, *sim.Result) error { return nil })
		if err == nil || err.Error() != "boom 3" {
			t.Errorf("shards=%d: got error %v, want boom 3", cfg.Shards, err)
		}
	}
}

// TestShardAllocBudget guards the runner's per-world overhead: reducing W
// worlds through the worker pool must not allocate appreciably more than
// running the same worlds through plain sim.Run back to back. The pool
// itself (goroutines, the result channel, parked early finishers) is O(1)
// per world.
func TestShardAllocBudget(t *testing.T) {
	worlds := testWorlds(t, 8)
	plain := testing.AllocsPerRun(3, func() {
		for _, w := range worlds {
			if _, err := sim.Run(w.Opt, w.Runs); err != nil {
				t.Fatal(err)
			}
		}
	})
	sharded := testing.AllocsPerRun(3, func() {
		err := Run(Config{Shards: 4}, len(worlds),
			func(i int) (World, error) { return worlds[i], nil },
			func(int, *sim.Result) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	})
	budget := float64(plain*1.25) + 200
	if sharded > budget {
		t.Errorf("sharded run allocates %.0f per pass, budget %.0f (plain: %.0f)", sharded, budget, plain)
	}
}

// TestShardCancellation: cancelling the context mid-run returns promptly
// with ctx.Err() and leaks no worker goroutines.
func TestShardCancellation(t *testing.T) {
	worlds := testWorlds(t, 40)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reduced atomic.Int64
	err := Run(Config{Shards: 8, Ctx: ctx}, len(worlds),
		func(i int) (World, error) { return worlds[i], nil },
		func(i int, res *sim.Result) error {
			if reduced.Add(1) == 3 {
				cancel()
			}
			return nil
		})
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := reduced.Load(); n >= int64(len(worlds)) {
		t.Fatalf("cancellation did not stop the run (%d/%d worlds reduced)", n, len(worlds))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardDegenerateInputs: zero worlds is a no-op; more shards than
// worlds clamps.
func TestShardDegenerateInputs(t *testing.T) {
	if err := Run(Config{Shards: 4}, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	worlds := testWorlds(t, 2)
	var calls atomic.Int64
	err := Run(Config{Shards: 16}, len(worlds),
		func(i int) (World, error) { return worlds[i], nil },
		func(int, *sim.Result) error { calls.Add(1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("reduced %d worlds, want 2", calls.Load())
	}
}
