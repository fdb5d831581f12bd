package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// whatIfFixture is one job as Alg. 1's sim evaluator sees it: the
// evaluator on the job's coarse cluster, a delay vector by position, and
// two fork points of a candidate scan over stage kid (at position k) — the
// world paused just before kid becomes ready, and the scan's held world
// (kid held back, stepped to its readiness and advanced to just before
// tr + heldX, the submission time of a candidate x = heldX), as
// Scan builds it.
type whatIfFixture struct {
	ev     *simEvaluator
	delays []float64
	k      int
	kid    dag.StageID
	prefix *sim.Stepper
	held   *sim.Stepper
}

// heldX is the fixture's held-world candidate delay.
const heldX = 3

// newWhatIfFixture picks the scanned stage as the middle stage (in
// insertion order) that has parents, delays every other such stage by a
// few seconds, and pauses the scan prefix and the held world.
func newWhatIfFixture(tb testing.TB, c *cluster.Cluster, job *workload.Job) *whatIfFixture {
	tb.Helper()
	ev, err := newSimEvaluator(Options{Cluster: c}, job, Arrival{}, new(PlanStats))
	if err != nil {
		tb.Fatal(err)
	}
	f := &whatIfFixture{ev: ev, delays: make([]float64, job.Graph.Len())}
	var inner []int
	for p := range job.Graph.StagesView() {
		if len(job.Graph.ParentPos(p)) > 0 {
			inner = append(inner, p)
		}
	}
	if len(inner) == 0 {
		tb.Fatal("fixture job has no stage with parents")
	}
	f.k = inner[len(inner)/2]
	f.kid = job.Graph.StagesView()[f.k]
	delays := map[dag.StageID]float64{}
	for i, p := range inner {
		if p != f.k {
			f.delays[p] = float64(1 + i%5)
			delays[job.Graph.StagesView()[p]] = f.delays[p]
		}
	}
	opt := f.ev.simOpt
	held := maps.Clone(delays)
	held[f.kid] = 10 * heldX
	if f.held, err = sim.NewStepper(opt, []sim.JobRun{{Job: job, Delays: held}}); err != nil {
		tb.Fatal(err)
	}
	tr, err := f.ev.stepToReady(f.held, f.k)
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.held.AdvanceBefore(tr + heldX); err != nil {
		tb.Fatal(err)
	}
	if f.prefix, err = sim.NewStepper(opt, []sim.JobRun{{Job: job, Delays: delays}}); err != nil {
		tb.Fatal(err)
	}
	if err := f.prefix.AdvanceBefore(tr); err != nil {
		tb.Fatal(err)
	}
	return f
}

// full runs one what-if evaluation from the job's arrival: a fork of the
// evaluator's prepared world, drained.
func (f *whatIfFixture) full(tb testing.TB) float64 {
	mk, err := f.ev.fullRun(f.delays)
	if err != nil {
		tb.Fatal(err)
	}
	return mk
}

// drainFork forks s under candidate delay x for the scanned stage, drains
// the fork to the job end and returns the answer and the events the fork
// stepped past its parent's.
func (f *whatIfFixture) drainFork(tb testing.TB, s *sim.Stepper, x float64) (float64, int) {
	fk, err := s.Fork([]sim.DelayUpdate{{Job: 0, Stage: f.kid, Delay: x}})
	if err != nil {
		tb.Fatal(err)
	}
	mk, _, err := fk.DrainJCTSum(math.Inf(1))
	if err != nil {
		tb.Fatal(err)
	}
	return mk, fk.Events() - s.Events()
}

// fullEvents is the number of events one full evaluation steps: the
// world fullRun drains, as arrive builds it.
func (f *whatIfFixture) fullEvents(tb testing.TB) int {
	s, err := f.ev.arrive(f.delays)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := s.DrainJCTSum(math.Inf(1)); err != nil {
		tb.Fatal(err)
	}
	return s.Events()
}

// fork runs one what-if evaluation forked from the world paused before
// the scanned stage's readiness, under candidate delay x: the path a
// root's zero-delay candidate takes.
func (f *whatIfFixture) fork(tb testing.TB, x float64) float64 {
	mk, _ := f.drainFork(tb, f.prefix, x)
	return mk
}

// heldFork runs one what-if evaluation from the held world: a fork at the
// candidate's submission time tr + heldX, drained to the job end — the
// common case inside a scan.
func (f *whatIfFixture) heldFork(tb testing.TB) float64 {
	mk, _ := f.drainFork(tb, f.held, heldX)
	return mk
}

// clone forks the held world under the candidate delay heldX and closes
// the fork unstepped: a fork's fixed cost.
func (f *whatIfFixture) clone(tb testing.TB) {
	fk, err := f.held.Fork([]sim.DelayUpdate{{Job: 0, Stage: f.kid, Delay: heldX}})
	if err != nil {
		tb.Fatal(err)
	}
	fk.Close()
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

// bigTraceJob returns a fixed trace DAG of at least 100 stages (136): the
// first such job of a seeded tracegen trace, on its own coarsened
// two-machine slice.
func bigTraceJob(tb testing.TB) (*cluster.Cluster, *workload.Job) {
	tb.Helper()
	tr := trace.Generate(trace.GenConfig{Jobs: 3000, Seed: 3})
	rng := rand.New(rand.NewSource(3))
	for i := range tr.Jobs {
		slice := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
		if len(tr.Jobs[i].Stages) < 100 {
			continue
		}
		wl, err := tr.Jobs[i].Workload(slice, trace.DefaultSplit, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return slice, wl
	}
	tb.Fatal("no trace job with 100 or more stages")
	return nil, nil
}

var whatIfSink float64

// BenchmarkWhatIfEval times one exact what-if evaluation of Alg. 1 on a
// fixed trace DAG: full simulates the job from its arrival (a fork of the
// prepared world), fork one forked just before the scanned stage's
// readiness, and held one forked from a scan's held world at the
// candidate's submission time (the common case inside a scan). Each
// reports the engine events one evaluation steps (events/op) and the
// time per event (ns/event), the engine step's own cost. clone times
// what every forked evaluation pays before its first step: a Fork of the
// held world under the candidate's delay, then Close, which hands the
// engine back to the pool.
func BenchmarkWhatIfEval(b *testing.B) {
	c, job := benchTraceJob(b)
	f := newWhatIfFixture(b, c, job)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			whatIfSink = f.full(b)
		}
		b.StopTimer()
		reportPerEvent(b, float64(f.fullEvents(b)))
	})
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		events := 0
		for i := 0; i < b.N; i++ {
			var n int
			whatIfSink, n = f.drainFork(b, f.prefix, float64(i%10))
			events += n
		}
		b.StopTimer()
		reportPerEvent(b, float64(events)/float64(b.N))
	})
	b.Run("held", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			whatIfSink = f.heldFork(b)
		}
		b.StopTimer()
		_, n := f.drainFork(b, f.held, heldX)
		reportPerEvent(b, float64(n))
	})
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.clone(b)
		}
	})
}

// reportPerEvent reports events/op and the time per event; the caller
// has stopped the timer.
func reportPerEvent(b *testing.B, eventsPerOp float64) {
	b.ReportMetric(eventsPerOp, "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(eventsPerOp*float64(b.N)), "ns/event")
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
// per-run constant — the engine's buffers, the per-job result slots
// included, come back from the pool and only the stepper is fresh — so
// they must not grow with the job's stage count. A full evaluation, a fork before the scanned stage's
// readiness and a fork from a scan's held world are measured on a 20- and
// an 80-stage DAG; a layout that allocates per stage (a heap state per
// stage, per-stage wiring slices, a per-fork pointer map) blows through
// the budget on the larger one. Their bytes must not grow either: a pooled
// evaluation on 80 stages may allocate at most 1.5 times the bytes of one
// on 20, so a buffer sized by the stage count (a presized timeline list,
// copied again by every fork) fails the check even as one allocation.
//
// An evaluation on a fresh engine pays for its buffers once: about 40
// allocations on 20 stages and 50 on 80 (eleven more under -race), growing
// only with the item blocks and buffer doublings a larger job needs; its
// budget is that with ~40% headroom, which a per-stage allocation on the
// 80-stage DAG still exceeds. It is checked in every build; the pooled
// budgets are not checked under -race, where sync.Pool drops a random share
// of engines, and CI runs this test without -race as well.
func TestWhatIfEvalAllocBudget(t *testing.T) {
	const budget, freshBudget, bytesGrowth = 10, 88, 1.5
	rng := rand.New(rand.NewSource(5))
	tc := sim.Coarsen(cluster.NewTraceCluster(64, 4, rng))
	smallBytes := map[string]float64{} // pooled bytes per evaluation on 20 stages
	for _, n := range []int{20, 80} {
		f := newWhatIfFixture(t, tc, workload.RandomJob(fmt.Sprintf("alloc-%d", n), tc, n, rng))
		evals := []struct {
			name string
			run  func()
		}{
			{"full", func() { f.full(t) }},
			{"fork", func() { f.fork(t, 3) }},
			{"held", func() { f.heldFork(t) }},
			{"clone", func() { f.clone(t) }},
		}
		// Warm the pool so its first fills do not bill the measured runs.
		for _, ev := range evals {
			ev.run()
		}
		for _, ev := range evals {
			fresh := testing.AllocsPerRun(5, func() { emptyPools(); ev.run() })
			t.Logf("%d stages, fresh engine: %s %.0f allocs/eval", n, ev.name, fresh)
			if fresh > freshBudget {
				t.Errorf("%d stages, fresh engine: %s %.0f allocs/eval; budget %d", n, ev.name, fresh, freshBudget)
			}
			if raceEnabled {
				continue
			}
			pooled := testing.AllocsPerRun(20, ev.run)
			bytes := bytesPerRun(20, ev.run)
			t.Logf("%d stages, pooled engine: %s %.0f allocs/eval, %.0f B/eval", n, ev.name, pooled, bytes)
			if pooled > budget {
				t.Errorf("%d stages, pooled engine: %s %.0f allocs/eval; budget %d per evaluation regardless of stage count",
					n, ev.name, pooled, budget)
			}
			if small, ok := smallBytes[ev.name]; !ok {
				smallBytes[ev.name] = bytes
			} else if bytes > bytesGrowth*small {
				t.Errorf("%d stages, pooled engine: %s %.0f B/eval, %.1fx the %.0f B on 20 stages; budget %.1fx",
					n, ev.name, bytes, bytes/small, small, bytesGrowth)
			}
		}
	}
}

// bytesPerRun returns the mean heap bytes one call of f allocates over
// runs calls.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestComputeAllocBudget bounds the allocations of one whole Alg. 1 run,
// planned as cmd/replay plans a DAG of more than 60 stages (Descending,
// MaxCandidates 6), on a 136-stage trace DAG: about 2,890 allocations and
// 371 KB for some 830 evaluations (Go 1.24). The budgets leave
// ~26% headroom on the count and ~16% on the bytes, room for another Go
// release's map layout (the memo map and its keys are about a third of
// the bytes). They catch allocations that scale with the job inside the
// planner's inner loops: a fresh delay vector per candidate scan (about
// +0.3 MB) fails the bytes bound; a sub-job per active set, or prepared
// worlds dropped without Stepper.Close (about 6,530 allocations and
// 5.4 MB), fail both. It is not checked under -race, where sync.Pool
// drops a random share of the pooled engines.
func TestComputeAllocBudget(t *testing.T) {
	const budget, bytesBudget = 3650, 430_000
	if raceEnabled {
		t.Skip("sync.Pool drops engines under -race")
	}
	c, job := bigTraceJob(t)
	opt := Options{Cluster: c, Order: Descending, Seed: 3, MaxCandidates: 6}
	compute := func() {
		if _, err := Compute(opt, job); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, compute)
	// On one P with the collector off, sync.Pool hands every engine back,
	// so the bytes depend neither on when collections run nor on which P
	// the goroutine lands on (as testing.AllocsPerRun pins one P).
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	bytes := bytesPerRun(3, compute)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gc)
	t.Logf("%d stages: %.0f allocations, %.0f B per Compute", job.Graph.Len(), allocs, bytes)
	if allocs > budget {
		t.Errorf("%d stages: %.0f allocations per Compute; budget %d", job.Graph.Len(), allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("%d stages: %.0f B per Compute; budget %d", job.Graph.Len(), bytes, bytesBudget)
	}
}
