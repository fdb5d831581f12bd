package sim

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
	"delaystage/internal/workload"
)

// galleryJobs returns the workload gallery (the four paper jobs plus ALS)
// on the given cluster, in deterministic name order.
func galleryJobs(c *cluster.Cluster, scale float64) []*workload.Job {
	m := workload.PaperWorkloads(c, scale)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	jobs := make([]*workload.Job, 0, len(names)+1)
	for _, n := range names {
		jobs = append(jobs, m[n])
	}
	jobs = append(jobs, workload.ALS(c, scale))
	return jobs
}

// randomDelays draws a sparse random delay vector for the job.
func randomDelays(job *workload.Job, rng *rand.Rand) map[dag.StageID]float64 {
	d := map[dag.StageID]float64{}
	for _, id := range job.Graph.Stages() {
		if rng.Float64() < 0.4 {
			d[id] = rng.Float64() * 60
		}
	}
	return d
}

// chaosInjector returns a fault plan exercising every machine-level
// mechanism at once: hash-based crashes, a scheduled crash, slow nodes
// and task failures (which, with Speculation/BlacklistAfter on, drive
// the speculation and blacklisting paths too).
func chaosInjector(t *testing.T) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(faults.FaultPlan{
		Seed: 7, TaskFailureProb: 0.05, StragglerFrac: 0.25, StragglerFactor: 3,
		SlowNodeFrac: 0.2, SlowNodeFactor: 2.5,
		NodeMTTF: 4000, MTTFHorizon: 600,
		Crashes: []faults.NodeCrash{{Node: 2, At: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func chaosOptions(c *cluster.Cluster, inj *faults.Injector) Options {
	return Options{
		Cluster: c, TrackNode: -1, Faults: inj,
		MaxAttempts: 8, Speculation: true, BlacklistAfter: 3,
	}
}

// requireIdentical fails unless two results are deeply (bit-)identical.
func requireIdentical(t *testing.T, ctx string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: continued result differs from from-scratch run\nwant makespan=%v events=%d\ngot  makespan=%v events=%d",
			ctx, want.Makespan, want.Events, got.Makespan, got.Events)
	}
}

// pausedAt returns a stepper over runs advanced to just before at: the
// pause point the fork and injection tests start from.
func pausedAt(t testing.TB, opt Options, runs []JobRun, at float64) *Stepper {
	t.Helper()
	s, err := NewStepper(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceBefore(at); err != nil {
		t.Fatalf("advance before %v: %v", at, err)
	}
	return s
}

// forkOut forks s under the updates and steps the fork to its end.
func forkOut(t testing.TB, s *Stepper, updates []DelayUpdate) *Result {
	t.Helper()
	f, err := s.Fork(updates)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stepOut(f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSnapshotResumeRoundTrip checks the core pause-and-fork property
// over the whole workload gallery: for any pause time, AdvanceBefore +
// Fork(nil) reproduces the uninterrupted Run bit for bit — timelines,
// usage series, integrals and the event count all included.
func TestSnapshotResumeRoundTrip(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(11))
	crash, err := faults.NewInjector(faults.FaultPlan{
		Seed: 3, TaskFailureProb: 0.03, StragglerFrac: 0.2, StragglerFactor: 2.5,
		Crashes: []faults.NodeCrash{{Node: 1, At: 45}},
	})
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Cluster: c, TrackNode: -1}},
		{"tracked", Options{Cluster: c, TrackNode: 0, TrackOccupancy: true, TrackCluster: true}},
		{"aggshuffle", Options{Cluster: c, TrackNode: -1, AggShuffle: true}},
		{"faults", Options{Cluster: c, TrackNode: -1, Faults: crash}},
	}
	for _, job := range galleryJobs(c, 0.3) {
		for _, v := range variants {
			runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
			ref, err := Run(v.opt, runs)
			if err != nil {
				t.Fatalf("%s/%s: %v", job.Name, v.name, err)
			}
			end := ref.JobEnd[0]
			checkpoints := []float64{0, end * 0.1, end * 0.5, end * 0.9, end + 100}
			for _, tl := range ref.Timelines {
				checkpoints = append(checkpoints, tl.Ready, tl.ReadEnd)
			}
			for _, at := range checkpoints {
				got := forkOut(t, pausedAt(t, v.opt, runs, at), nil)
				requireIdentical(t, job.Name+"/"+v.name, ref, got)
			}
		}
	}
}

// TestSnapshotForkDelayBitIdentical is the fork-correctness property the
// what-if evaluator rests on: fork a world with a revised delay for one
// stage, and the result must be bit-identical to a from-scratch run that
// had the delay in its Delays map all along. Covers every gallery
// workload on a per-node and a coarse cluster, every stage (roots
// included), and several candidates (0, the incumbent, random, π), forked
// from two worlds:
//
//   - paused just before the stage's ready time, every other delay baked
//     in, so the fork takes the before-readiness override path;
//   - the held world, where the stage's delay exceeds every candidate:
//     stepped to the stage's readiness (a root is ready at arrival, so its
//     held world starts unstepped) and then advanced along ascending
//     candidates, forked at readiness, halfway to each candidate's
//     submission time and at it, where the fork re-arms the pending
//     submission timer in place.
func TestSnapshotForkDelayBitIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	coarse := Coarsen(c)
	rng := rand.New(rand.NewSource(23))
	for _, job := range galleryJobs(c, 0.25) {
		for _, cl := range []*cluster.Cluster{c, coarse} {
			opt := Options{Cluster: cl, TrackNode: -1}
			base := randomDelays(job, rng)
			ref, err := Run(opt, []JobRun{{Job: job, Delays: base}})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range job.Graph.Stages() {
				tr := ref.Timeline(0, id).Ready
				pre := make(map[dag.StageID]float64, len(base))
				for k, v := range base {
					if k != id {
						pre[k] = v
					}
				}
				xs := []float64{0, base[id], rng.Float64() * 40, math.Pi}
				sort.Float64s(xs)
				want := make([]*Result, len(xs))
				for i, x := range xs {
					full := maps.Clone(pre)
					if x != 0 {
						full[id] = x
					}
					if want[i], err = Run(opt, []JobRun{{Job: job, Delays: full}}); err != nil {
						t.Fatal(err)
					}
				}
				upd := func(x float64) []DelayUpdate { return []DelayUpdate{{Job: 0, Stage: id, Delay: x}} }
				ctx := fmt.Sprintf("%s/%d-node/stage %d", job.Name, len(cl.Nodes), id)

				prefix := pausedAt(t, opt, []JobRun{{Job: job, Delays: pre}}, tr)
				for i, x := range xs {
					requireIdentical(t, ctx+" before readiness", want[i], forkOut(t, prefix, upd(x)))
				}

				heldDelays := maps.Clone(pre)
				heldDelays[id] = xs[len(xs)-1] + 7
				held, err := NewStepper(opt, []JobRun{{Job: job, Delays: heldDelays}})
				if err != nil {
					t.Fatal(err)
				}
				if len(job.Graph.Stage(id).Parents) > 0 {
					for {
						if _, ok := held.ReadyTime(0, job.Graph.Pos(id)); ok {
							break
						}
						if err := held.StepNextEvent(); err != nil {
							t.Fatal(err)
						}
					}
					if got, _ := held.ReadyTime(0, job.Graph.Pos(id)); got != tr || held.Clock() != tr {
						t.Fatalf("%s: held world ready at %v with clock %v, want %v", ctx, got, held.Clock(), tr)
					}
				}
				for i, x := range xs {
					requireIdentical(t, ctx+" at readiness", want[i], forkOut(t, held, upd(x)))
				}
				for i, x := range xs {
					for _, b := range []float64{tr + float64(x/2), tr + x} {
						if err := held.AdvanceBefore(b); err != nil {
							t.Fatal(err)
						}
						requireIdentical(t, fmt.Sprintf("%s held to %v, x=%v", ctx, b-tr, x), want[i], forkOut(t, held, upd(x)))
					}
				}
			}
		}
	}
}

// TestDrainJCTSum: a drained fork's Σ JCT is the from-scratch run's sum of
// JCT(i) bit for bit — its job end for one job arriving at 0, and the sum
// over a world grown by Inject — its clock, event and job counts stay
// readable, and the discarded result cannot be taken.
func TestDrainJCTSum(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	opt := Options{Cluster: Coarsen(c), TrackNode: -1}
	rng := rand.New(rand.NewSource(5))
	jobs := galleryJobs(c, 0.25)
	for i, job := range jobs {
		runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pausedAt(t, opt, runs, ref.Makespan/2).Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		end, _, err := f.DrainJCTSum(math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(end) != math.Float64bits(ref.JobEnd[0]) {
			t.Errorf("%s: drained JCT sum %v, want the job end %v", job.Name, end, ref.JobEnd[0])
		}
		if f.HasPendingEvents() || f.Events() != ref.Events || f.Clock() != ref.JobEnd[0] || f.Jobs() != 1 {
			t.Errorf("%s: drained stepper reports pending=%v events=%d clock=%v jobs=%d, want false/%d/%v/1",
				job.Name, f.HasPendingEvents(), f.Events(), f.Clock(), f.Jobs(), ref.Events, ref.JobEnd[0])
		}
		if _, err := f.Result(); err == nil {
			t.Errorf("%s: Result after DrainJCTSum did not error", job.Name)
		}
		if _, _, err := f.DrainJCTSum(math.Inf(1)); err == nil {
			t.Errorf("%s: second DrainJCTSum did not error", job.Name)
		}

		// The same job arriving into a world that already runs two others.
		other, third := jobs[(i+1)%len(jobs)], jobs[(i+2)%len(jobs)]
		all := []JobRun{{Job: other, Delays: randomDelays(other, rng)},
			{Job: third, Arrival: 12, Delays: randomDelays(third, rng)},
			{Job: job, Arrival: 30, Delays: runs[0].Delays}}
		mref, err := Run(opt, all)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for j := range all {
			want += mref.JCT(j)
		}
		w := pausedAt(t, opt, all[:2], 30)
		if w.Jobs() != 2 {
			t.Fatalf("%s: world reports %d jobs, want 2", job.Name, w.Jobs())
		}
		if err := w.Inject(all[2]); err != nil {
			t.Fatal(err)
		}
		got, _, err := w.DrainJCTSum(math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) || w.Jobs() != 3 {
			t.Errorf("%s: drained multi-job JCT sum %v over %d jobs, want %v over 3", job.Name, got, w.Jobs(), want)
		}
	}
}

// TestSnapshotMultiJob covers pauses between job arrivals, delay forks on
// the later job, and forks that keep growing by Inject.
func TestSnapshotMultiJob(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	jobs := galleryJobs(c, 0.2)
	opt := Options{Cluster: c, TrackNode: -1, FairByJob: true}
	runs := []JobRun{
		{Job: jobs[0], Arrival: 0},
		{Job: jobs[1], Arrival: 30},
		{Job: jobs[2], Arrival: 60, Delays: map[dag.StageID]float64{jobs[2].Graph.Stages()[1]: 12}},
	}
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{0, 15, 30, 45, 60, 61, ref.Makespan * 0.8} {
		requireIdentical(t, "multi-job", ref, forkOut(t, pausedAt(t, opt, runs, at), nil))
	}
	// Fork job 2's delayed stage before its arrival.
	kid := jobs[2].Graph.Stages()[1]
	prefix := pausedAt(t, opt, []JobRun{runs[0], runs[1], {Job: jobs[2], Arrival: 60}}, 55)
	requireIdentical(t, "multi-job fork", ref, forkOut(t, prefix, []DelayUpdate{{Job: 2, Stage: kid, Delay: 12}}))

	// A fork keeps its parent's Inject horizon: fork a one-job world
	// before the second arrival and grow the fork into the full world.
	parent := pausedAt(t, opt, runs[:1], runs[1].Arrival)
	f, err := parent.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range runs[1:] {
		if err := f.AdvanceBefore(r.Arrival); err != nil {
			t.Fatal(err)
		}
		if err := f.Inject(r); err != nil {
			t.Fatalf("inject job %d into a fork: %v", k+1, err)
		}
	}
	got, err := stepOut(f)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "multi-job fork grown by Inject", ref, got)
}

// TestSnapshotResumeErrors pins Fork's refusal cases.
func TestSnapshotResumeErrors(t *testing.T) {
	c := cluster.NewM4LargeCluster(3)
	job := workload.TriangleCount(c, 0.2)
	runs := []JobRun{{Job: job}}
	opt := Options{Cluster: c, TrackNode: -1}
	if _, err := pausedAt(t, Options{Cluster: c, TrackNode: -1, Watchdog: nopWatchdog{}}, runs, 10).Fork(nil); err == nil {
		t.Error("want error forking a world with a watchdog")
	}
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	s := pausedAt(t, opt, runs, ref.Makespan*0.9)
	roots := job.Graph.Roots()
	last := job.Graph.Stages()[job.Graph.Len()-1]
	for _, tc := range []struct {
		what string
		upd  DelayUpdate
	}{
		{"an already-submitted stage", DelayUpdate{Job: 0, Stage: roots[0], Delay: 5}},
		{"an unknown stage", DelayUpdate{Job: 0, Stage: 9999, Delay: 5}},
		{"an unknown job", DelayUpdate{Job: 5, Stage: roots[0], Delay: 5}},
		{"a negative delay", DelayUpdate{Job: 0, Stage: last, Delay: -1}},
		{"a NaN delay", DelayUpdate{Job: 0, Stage: last, Delay: math.NaN()}},
		{"an infinite delay", DelayUpdate{Job: 0, Stage: last, Delay: math.Inf(1)}},
	} {
		if _, err := s.Fork([]DelayUpdate{tc.upd}); err == nil {
			t.Errorf("want error revising %s", tc.what)
		}
	}
	// A refused fork leaves the parent untouched, and a finished stepper
	// cannot be forked.
	got, err := stepOut(s)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "parent after refused forks", ref, got)
	if _, err := s.Fork(nil); err == nil {
		t.Error("want error forking a finished stepper")
	}
}

// TestForkObservedWorld: the fork of a world with an Observer is
// detached. Whether it continues the world or takes an injected
// newcomer, it steps bit-identically to Run; none of its events reaches
// the parent's observer; and the parent's own stream is the one an
// unforked observed Run produces.
func TestForkObservedWorld(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(43))
	jobs := galleryJobs(c, 0.25)
	opt := Options{Cluster: c, TrackNode: -1}
	for i, job := range jobs {
		solo, err := Run(opt, []JobRun{{Job: job}})
		if err != nil {
			t.Fatal(err)
		}
		next := jobs[(i+1)%len(jobs)]
		runs := []JobRun{
			{Job: job, Delays: randomDelays(job, rng)},
			{Job: next, Arrival: solo.Makespan * 0.3, Delays: randomDelays(next, rng)},
		}
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		seen := &recorder{}
		popt := opt
		popt.Observer = seen
		parent := pausedAt(t, popt, runs[:1], runs[1].Arrival)
		quiet := func(ctx string, fork func()) {
			t.Helper()
			events := len(seen.events)
			fork()
			if len(seen.events) != events {
				t.Fatalf("%s/%s: the parent's observer saw %d events of the fork",
					job.Name, ctx, len(seen.events)-events)
			}
		}
		// The planner's use: fork the live world and inject the newcomer.
		quiet("newcomer injected into a fork", func() {
			f, err := parent.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Inject(runs[1]); err != nil {
				t.Fatal(err)
			}
			got, err := stepOut(f)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, job.Name+"/newcomer injected into a fork", ref, got)
		})
		if err := parent.Inject(runs[1]); err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.5, 0.8} {
			if err := parent.AdvanceBefore(ref.Makespan * frac); err != nil {
				t.Fatal(err)
			}
			quiet("continued fork", func() { requireIdentical(t, job.Name+"/continued fork", ref, forkOut(t, parent, nil)) })
		}
		got, err := stepOut(parent)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, job.Name+"/observed parent", ref, got)
		requireObservedRun(t, job.Name, opt, runs, seen)
	}
}

// requireObservedRun fails unless seen holds exactly the events an
// observer attached to Run(opt, runs) receives.
func requireObservedRun(t *testing.T, ctx string, opt Options, runs []JobRun, seen *recorder) {
	t.Helper()
	want := &recorder{}
	opt.Observer = want
	if _, err := Run(opt, runs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, seen) {
		t.Fatalf("%s: observed stream differs from an unforked run's (%d events; want %d)",
			ctx, len(seen.events), len(want.events))
	}
}

// TestForkLeavesParentIntact: a parent paused and forked many times — at
// several boundaries, with and without delay revisions — still finishes
// bit-identical to Run, and so does every unrevised fork.
func TestForkLeavesParentIntact(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(41))
	for _, job := range galleryJobs(c, 0.25) {
		opt := chaosOptions(c, chaosInjector(t))
		runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		last := job.Graph.Stages()[job.Graph.Len()-1]
		s, err := NewStepper(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.7} {
			if err := s.AdvanceBefore(ref.Makespan * frac); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, job.Name+"/unrevised fork", ref, forkOut(t, s, nil))
			if f, err := s.Fork([]DelayUpdate{{Job: 0, Stage: last, Delay: 9}}); err == nil {
				if _, err := stepOut(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := stepOut(s)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, job.Name+"/parent after forks", ref, got)
	}
}

// TestForkConcurrent forks one paused parent from 8 goroutines at once,
// each pricing a different delay for the scanned stage; every fork must
// match the from-scratch run with that delay. Run under -race it also
// proves Fork only reads its parent. Then 8 more forks outlive their
// closed parent and drain on 8 goroutines at once, so the last to
// finish, whichever it is, retires the stage table they share.
func TestForkConcurrent(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	coarse := Coarsen(c)
	opt := Options{Cluster: coarse, TrackNode: -1}
	job := galleryJobs(c, 0.25)[0]
	ids := job.Graph.Stages()
	kid := ids[len(ids)/2]
	ref, err := Run(opt, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	parent := pausedAt(t, opt, []JobRun{{Job: job}}, ref.Timeline(0, kid).Ready)
	const workers = 8
	want := make([]*Result, workers)
	for i := range want {
		want[i], err = Run(opt, []JobRun{{Job: job, Delays: map[dag.StageID]float64{kid: float64(3 * i)}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				f, err := parent.Fork([]DelayUpdate{{Job: 0, Stage: kid, Delay: float64(3 * i)}})
				if err == nil {
					got[i], err = stepOut(f)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		requireIdentical(t, "concurrent fork", want[i], got[i])
	}

	forks := make([]*Stepper, workers)
	for i := range forks {
		if forks[i], err = parent.Fork([]DelayUpdate{{Job: 0, Stage: kid, Delay: float64(3 * i)}}); err != nil {
			t.Fatal(err)
		}
	}
	parent.Close()
	for i, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = stepOut(f)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("fork %d of a closed parent: %v", i, errs[i])
		}
		requireIdentical(t, "fork of a closed parent", want[i], got[i])
	}
}

// FuzzStepperFork fuzzes the pause-and-fork round trip at arbitrary pause
// times and delay vectors: a fork must reproduce the uninterrupted run
// bit for bit, and so must the parent it was forked from. It also forks a
// delay revision for one stage from a world that holds the stage back,
// paused at a boundary no later than the revised submission time — before
// or after the stage's readiness — and requires the fork to match a
// from-scratch run with the revised delay. With placed set, the world is
// the job spread at random over the nodes and joined by links (which
// rules out AggShuffle and faults). A non-zero prefix switches to the multi-job
// world the online planner prices candidates on (fuzzMultiJobFork). fair
// shares by job; bit 0 of extras adds faults (task deaths, stragglers, a
// node crash) with speculation, bit 1 tracks a node, the cluster and
// occupancy. Every fork is also drained a second time with DrainJCTSum,
// whose answer-only engine must give the reference run's Σ JCT bit for
// bit, and so is a fork of the same world stepped answer-only from the
// start (Stepper.AnswerOnly), as the what-if evaluator steps its worlds:
// its Σ JCT must be the tracking fork's, bit for bit. An even seed
// attaches an Observer to the world every fork is taken from: the forks
// are detached, so that world's event stream must still be the one an
// unforked observed Run produces.
func FuzzStepperFork(f *testing.F) {
	f.Add(uint8(0), int64(1), 0.5, false, uint8(0), 0.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(1), int64(2), 0.0, true, uint8(1), 3.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(2), int64(3), 1.5, false, uint8(2), 12.5, false, uint8(0), false, uint8(0))
	f.Add(uint8(3), int64(4), 0.99, true, uint8(3), 0.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(4), int64(5), 0.01, false, uint8(4), 40.0, false, uint8(0), false, uint8(0))
	// Post-readiness seeds: the pause lands after the stage became ready,
	// so the fork re-arms its pending submission timer.
	f.Add(uint8(0), int64(6), 0.6, false, uint8(3), 0.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(1), int64(7), 0.4, false, uint8(2), 5.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(2), int64(8), 0.7, false, uint8(5), 1.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(3), int64(9), 0.5, false, uint8(6), 20.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(4), int64(10), 0.3, true, uint8(1), 2.5, false, uint8(0), false, uint8(0))
	// Placed worlds, paused before and after the stage's readiness.
	f.Add(uint8(0), int64(11), 0.5, false, uint8(2), 4.0, true, uint8(0), false, uint8(0))
	f.Add(uint8(2), int64(12), 0.7, false, uint8(4), 0.0, true, uint8(0), false, uint8(0))
	f.Add(uint8(3), int64(13), 0.2, false, uint8(1), 15.0, true, uint8(0), false, uint8(0))
	// Multi-job worlds: a committed prefix of one to three jobs, the
	// newcomer arriving mid-flight with a root (stage index 0) or a
	// non-root stage held back, under either fairness.
	f.Add(uint8(0), int64(14), 0.5, false, uint8(0), 0.0, false, uint8(1), false, uint8(0))
	f.Add(uint8(1), int64(15), 0.3, false, uint8(0), 7.5, false, uint8(2), true, uint8(0))
	f.Add(uint8(2), int64(16), 0.8, false, uint8(3), 3.5, false, uint8(3), true, uint8(0))
	f.Add(uint8(3), int64(17), 0.1, false, uint8(2), 27.25, false, uint8(1), false, uint8(0))
	f.Add(uint8(4), int64(18), 0.6, true, uint8(5), 10.0, false, uint8(2), false, uint8(0))
	f.Add(uint8(0), int64(19), 1.2, false, uint8(4), 60.0, false, uint8(3), true, uint8(0))
	// One world per engine gate the drains skip or take: plain equal
	// sharing, AggShuffle, job-fair sharing, faults with speculation,
	// placed stages over links, and a tracked world.
	f.Add(uint8(1), int64(20), 0.4, false, uint8(3), 2.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(2), int64(21), 0.5, true, uint8(4), 6.0, false, uint8(0), false, uint8(0))
	f.Add(uint8(3), int64(22), 0.3, false, uint8(2), 1.5, false, uint8(0), true, uint8(0))
	f.Add(uint8(4), int64(23), 0.6, false, uint8(5), 4.0, false, uint8(0), false, uint8(1))
	f.Add(uint8(1), int64(24), 0.5, false, uint8(3), 8.0, true, uint8(0), false, uint8(0))
	f.Add(uint8(0), int64(25), 0.7, true, uint8(1), 3.0, false, uint8(0), true, uint8(3))
	c := cluster.NewM4LargeCluster(4)
	f.Fuzz(func(t *testing.T, jobIdx uint8, seed int64, frac float64, agg bool, stage uint8, slack float64, placed bool, prefix uint8, fair bool, extras uint8) {
		if math.IsNaN(frac) || frac < 0 || frac > 3 || math.IsNaN(slack) || slack < 0 || slack > 100 {
			t.Skip()
		}
		jobs := galleryJobs(c, 0.2)
		job := jobs[int(jobIdx)%len(jobs)]
		rng := rand.New(rand.NewSource(seed))
		var seen *recorder
		if seed%2 == 0 {
			seen = &recorder{}
		}
		if prefix > 0 {
			fuzzMultiJobFork(t, c, jobs, job, rng, frac, stage, slack, 1+int(prefix-1)%3, fair, seen)
			return
		}
		runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
		opt := Options{Cluster: c, TrackNode: -1, AggShuffle: agg, FairByJob: fair}
		if placed {
			opt, runs = placedWorld(c, job, rand.New(rand.NewSource(seed)))
			agg = false
		}
		if extras&1 != 0 && !placed {
			inj, err := faults.NewInjector(faults.FaultPlan{
				Seed: seed, TaskFailureProb: 0.03, StragglerFrac: 0.2, StragglerFactor: 4,
				Crashes: []faults.NodeCrash{{Node: 1, At: 20}},
			})
			if err != nil {
				t.Fatal(err)
			}
			opt.Faults, opt.MaxAttempts, opt.Speculation = inj, 8, true
		}
		if extras&2 != 0 {
			opt.TrackNode, opt.TrackCluster, opt.TrackOccupancy = 0, true, true
		}
		withDelays := func(d map[dag.StageID]float64) []JobRun {
			r := runs[0]
			r.Delays = d
			return []JobRun{r}
		}
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		at := float64(frac * ref.Makespan)
		popt := opt
		if seen != nil {
			popt.Observer = seen
		}
		parent := pausedAt(t, popt, runs, at)
		got := forkOut(t, parent, nil)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("fork at %v differs from uninterrupted run", at)
		}
		requireDrainSum(t, fmt.Sprintf("fork at %v", at), parent, nil, ref)
		requireAnswerOnlySum(t, fmt.Sprintf("answer-only fork at %v", at), answerOnlyAt(t, opt, runs, at), nil, got)
		got, err = stepOut(parent)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("parent forked at %v differs from uninterrupted run", at)
		}
		if seen != nil {
			requireObservedRun(t, fmt.Sprintf("parent forked at %v", at), opt, runs, seen)
		}

		// The stage's ready time does not depend on its own delay, so the
		// reference run gives it.
		ids := job.Graph.Stages()
		kid := ids[int(stage)%len(ids)]
		tr := ref.Timeline(0, kid).Ready
		x := math.Max(at-tr, 0) + slack
		b := math.Min(at, tr+x)
		revised := maps.Clone(runs[0].Delays)
		revised[kid] = x
		want, err := Run(opt, withDelays(revised))
		if err != nil {
			t.Fatal(err)
		}
		held := maps.Clone(runs[0].Delays)
		held[kid] = x + 10
		hw := pausedAt(t, opt, withDelays(held), b)
		revise := []DelayUpdate{{Job: 0, Stage: kid, Delay: x}}
		fk, err := hw.Fork(revise)
		if err != nil {
			if agg {
				return // the stage was prefetched: submitted before it was ready
			}
			t.Fatal(err)
		}
		got, err = stepOut(fk)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("stage %d (ready at %v) held back, forked at %v with delay %v: differs from a run with that delay", kid, tr, b, x)
		}
		requireDrainSum(t, fmt.Sprintf("stage %d held back, forked at %v", kid, b), hw, revise, want)
		requireAnswerOnlySum(t, fmt.Sprintf("stage %d held back answer-only, forked at %v", kid, b),
			answerOnlyAt(t, opt, withDelays(held), b), revise, got)
	})
}

// answerOnlyAt is pausedAt for an answer-only world: it steps to the
// pause without usage integrals or tracked series.
func answerOnlyAt(t testing.TB, opt Options, runs []JobRun, at float64) *Stepper {
	t.Helper()
	s, err := NewStepper(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	s.AnswerOnly()
	if err := s.AdvanceBefore(at); err != nil {
		t.Fatalf("advance before %v: %v", at, err)
	}
	return s
}

// requireAnswerOnlySum forks the answer-only world s under the updates,
// drains the fork and fails unless its Σ JCT is, bit for bit, the Σ of
// JCT(i) of got, the Result of the same fork taken of a world that
// tracks usage; the answer-only fork itself must have no Result.
func requireAnswerOnlySum(t *testing.T, ctx string, s *Stepper, updates []DelayUpdate, got *Result) {
	t.Helper()
	f, err := s.Fork(updates)
	if err != nil {
		t.Fatal(err)
	}
	for f.HasPendingEvents() {
		if err := f.StepNextEvent(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
	if _, err := f.Result(); err == nil {
		t.Fatalf("%s: an answer-only fork has a Result", ctx)
	}
	sum, _, err := f.DrainJCTSum(math.Inf(1))
	if err != nil {
		t.Fatalf("%s: drain: %v", ctx, err)
	}
	if want := jctSum(got); math.Float64bits(sum) != math.Float64bits(want) {
		t.Fatalf("%s: answer-only Σ JCT %v, the tracking fork's %v", ctx, sum, want)
	}
}

// requireDrainSum forks s under the updates, drains the fork with
// DrainJCTSum and fails unless the answer is want's Σ JCT, bit for bit.
func requireDrainSum(t *testing.T, ctx string, s *Stepper, updates []DelayUpdate, want *Result) {
	t.Helper()
	f, err := s.Fork(updates)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.DrainJCTSum(math.Inf(1))
	if err != nil {
		t.Fatalf("%s: drain: %v", ctx, err)
	}
	if sum := jctSum(want); math.Float64bits(got) != math.Float64bits(sum) {
		t.Fatalf("%s: drained Σ JCT %v, the full run's %v", ctx, got, sum)
	}
}

// fuzzMultiJobFork is FuzzStepperFork's multi-job mode. A committed
// prefix of n jobs is grown by AdvanceBefore + Inject and advanced to just
// before the newcomer's arrival A. A fork of it takes the newcomer with
// one stage held back, steps to that stage's ready time tr, advances to
// just before tr + x and forks the delay x in. A root's tr is A: its
// arrival timer fires up to one clock tolerance late, so its recorded
// ready time may sit an ulp past A, and a fork before A + x is still no
// later than its submission. The result must
// match a from-scratch Run over every job with that delay, bit for bit.
// The world never aggregates shuffles, as the planner's worlds do not: an
// aggregated stage may prefetch before it is ready, so its ready time can
// depend on its own delay. A non-nil seen observes the committed world,
// as the scheduling service's data plane does: once drained, its stream
// must be an unforked observed Run's.
func fuzzMultiJobFork(t *testing.T, c *cluster.Cluster, jobs []*workload.Job, job *workload.Job, rng *rand.Rand,
	frac float64, stage uint8, x float64, n int, fair bool, seen *recorder) {
	opt := Options{Cluster: c, TrackNode: -1, FairByJob: fair}
	var runs []JobRun
	at := 0.0
	for i := 0; i < n; i++ {
		pj := jobs[rng.Intn(len(jobs))]
		runs = append(runs, JobRun{Job: pj, Arrival: at, Delays: randomDelays(pj, rng)})
		at += float64(rng.Float64() * 20)
	}
	copt := opt
	if seen != nil {
		copt.Observer = seen
	}
	committed, err := NewStepper(copt, runs[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs[1:] {
		if err := committed.AdvanceBefore(r.Arrival); err != nil {
			t.Fatal(err)
		}
		if err := committed.Inject(r); err != nil {
			t.Fatal(err)
		}
	}
	arrival := at + float64(frac*30)
	if err := committed.AdvanceBefore(arrival); err != nil {
		t.Fatal(err)
	}

	ji := len(runs)
	ids := job.Graph.Stages()
	kid := ids[int(stage)%len(ids)]
	delays := randomDelays(job, rng)
	revised := maps.Clone(delays)
	revised[kid] = x
	want, err := Run(opt, append(slices.Clip(runs), JobRun{Job: job, Arrival: arrival, Delays: revised}))
	if err != nil {
		t.Fatal(err)
	}

	held := maps.Clone(delays)
	held[kid] = x + 10
	// heldWorld forks the committed world, injects the newcomer with the
	// stage held back and steps it to just before tr + x: answer-only
	// from the fork on, as the what-if evaluator's worlds are, or not.
	tr := arrival
	heldWorld := func(answerOnly bool) *Stepper {
		w, err := committed.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		if answerOnly {
			w.AnswerOnly()
		}
		if err := w.Inject(JobRun{Job: job, Arrival: arrival, Delays: held}); err != nil {
			t.Fatal(err)
		}
		if len(job.Graph.Stage(kid).Parents) > 0 {
			for {
				if r, ok := w.ReadyTime(ji, job.Graph.Pos(kid)); ok {
					tr = r
					break
				}
				if err := w.StepNextEvent(); err != nil {
					t.Fatal(err)
				}
			}
			if wantTr := want.Timeline(ji, kid).Ready; tr != wantTr {
				t.Fatalf("stage %d ready at %v in the held world, %v in the reference", kid, tr, wantTr)
			}
		}
		if err := w.AdvanceBefore(tr + x); err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := heldWorld(false)
	revise := []DelayUpdate{{Job: ji, Stage: kid, Delay: x}}
	got := forkOut(t, w, revise)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%d committed jobs, stage %d (ready at %v) of the newcomer at %v held back, forked with delay %v: differs from a run with that delay",
			n, kid, tr, arrival, x)
	}
	ctx := fmt.Sprintf("%d committed jobs, newcomer at %v", n, arrival)
	requireDrainSum(t, ctx, w, revise, want)
	requireAnswerOnlySum(t, ctx+", answer-only", heldWorld(true), revise, got)
	if seen != nil {
		if _, err := stepOut(committed); err != nil {
			t.Fatal(err)
		}
		requireObservedRun(t, ctx+", observed committed world", opt, runs, seen)
	}
}
