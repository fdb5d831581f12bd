package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"delaystage/internal/cluster"
)

// stepToCompletion drives a stepper until drained, asserting the clock
// invariants on the way: PeekNextEventTime never prices below the current
// clock, repeated peeks return the identical value (peeking is idempotent
// at an event boundary), and the clock after a step never falls short of
// the peeked price.
func stepToCompletion(t *testing.T, s *Stepper) *Result {
	t.Helper()
	steps := 0
	for s.HasPendingEvents() {
		before := s.Clock()
		peek := s.PeekNextEventTime()
		if peek < before {
			t.Fatalf("step %d: peek %v below clock %v", steps, peek, before)
		}
		if again := s.PeekNextEventTime(); again != peek {
			t.Fatalf("step %d: peek not idempotent: %v then %v", steps, peek, again)
		}
		if err := s.StepNextEvent(); err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
		if after := s.Clock(); after+1e-9 < peek {
			t.Fatalf("step %d: clock %v fell short of peeked %v", steps, after, peek)
		}
		steps++
		if steps > 6_000_000 {
			t.Fatal("stepper did not drain")
		}
	}
	if got := s.PeekNextEventTime(); !math.IsInf(got, 1) {
		t.Fatalf("drained stepper peeks %v, want +Inf", got)
	}
	if err := s.StepNextEvent(); err == nil {
		t.Fatal("stepping a drained run did not error")
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSteppedRunIdentical is the tentpole property: a run driven one event
// at a time through the exported step primitives is DeepEqual-identical to
// sim.Run — across the gallery jobs, with and without tracking, and under
// the full chaos regime (crashes, stragglers, slow nodes, speculation,
// blacklisting).
func TestSteppedRunIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(23))
	for _, job := range galleryJobs(c, 0.3) {
		for _, v := range stepVariants(t, c) {
			runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
			ref, err := Run(v.opt, runs)
			if err != nil {
				t.Fatalf("%s/%s: %v", job.Name, v.name, err)
			}
			s, err := NewStepper(v.opt, runs)
			if err != nil {
				t.Fatalf("%s/%s: %v", job.Name, v.name, err)
			}
			got := stepToCompletion(t, s)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s/%s: stepped result differs from Run", job.Name, v.name)
			}
		}
	}
}

// stepVariant is an engine configuration the stepping tests cover.
type stepVariant struct {
	name string
	opt  Options
}

// stepVariants returns the untracked, fully tracked and chaos variants.
func stepVariants(t *testing.T, c *cluster.Cluster) []stepVariant {
	return []stepVariant{
		{"plain", Options{Cluster: c, TrackNode: -1}},
		{"tracked", Options{Cluster: c, TrackNode: 0, TrackOccupancy: true, TrackCluster: true}},
		{"chaos", chaosOptions(c, chaosInjector(t))},
	}
}

// TestRunCheckpointedMatchesRun: halting a world on a periodic cadence —
// AdvanceBefore at every seventh of the makespan, then a drain — must not
// perturb the trajectory; the result equals a plain Run bit for bit.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(29))
	for _, job := range galleryJobs(c, 0.25) {
		for _, v := range stepVariants(t, c) {
			runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
			ref, err := Run(v.opt, runs)
			if err != nil {
				t.Fatalf("%s/%s: %v", job.Name, v.name, err)
			}
			s, err := NewStepper(v.opt, runs)
			if err != nil {
				t.Fatalf("%s/%s: %v", job.Name, v.name, err)
			}
			for k := 1; k <= 7; k++ {
				if err := s.AdvanceBefore(float64(k) * ref.Makespan / 7); err != nil {
					t.Fatalf("%s/%s: advance %d: %v", job.Name, v.name, k, err)
				}
			}
			got, err := stepOut(s)
			if err != nil {
				t.Fatalf("%s/%s: %v", job.Name, v.name, err)
			}
			requireIdentical(t, job.Name+"/"+v.name+"/paced", ref, got)
		}
	}
}

// TestResumedObserverSeesUninterruptedEvents: an Observer on a world
// paused part-way and then resumed to its end receives the same event
// stream as an observer on the uninterrupted run — the property
// behind simulate's -events log, Chrome trace and report.
func TestResumedObserverSeesUninterruptedEvents(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := galleryJobs(c, 0.25)[3]
	runs := []JobRun{{Job: job}}
	for _, v := range stepVariants(t, c) {
		want := &recorder{}
		observed := v.opt
		observed.Observer = want
		ref, err := Run(observed, runs)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for _, frac := range []float64{0, 0.2, 0.5, 0.9} {
			got := &recorder{}
			observed.Observer = got
			res, err := stepOut(pausedAt(t, observed, runs, ref.Makespan*frac))
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			requireIdentical(t, v.name+"/observed resume", ref, res)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s resumed at %v of the run: observer saw %d events; uninterrupted %d",
					v.name, frac, len(got.events), len(want.events))
			}
		}
	}
}

// TestSteppedMultiJobArrivals covers the multi-job shard shape: several
// jobs with staggered arrivals sharing one engine under FairByJob, stepped
// to completion, must match Run bit for bit.
func TestSteppedMultiJobArrivals(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(5))
	jobs := galleryJobs(c, 0.25)
	var runs []JobRun
	for i, job := range jobs {
		runs = append(runs, JobRun{Job: job, Arrival: float64(i) * 30, Delays: randomDelays(job, rng)})
	}
	for _, opt := range []Options{
		{Cluster: c, TrackNode: -1, FairByJob: true},
		chaosOptions(c, chaosInjector(t)),
	} {
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStepper(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, stepToCompletion(t, s)) {
			t.Error("stepped multi-job result differs from Run")
		}
	}
}

// TestSnapshotStepper checks that forks compose with the step primitives:
// a run paused mid-flight and continued through Fork must satisfy every
// stepping invariant and reproduce the uninterrupted Run, and the parent
// stays reusable.
func TestSnapshotStepper(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(11))
	for _, job := range galleryJobs(c, 0.3) {
		opt := chaosOptions(c, chaosInjector(t))
		runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		parent := pausedAt(t, opt, runs, ref.JobEnd[0]*0.6)
		for fork := 0; fork < 2; fork++ { // fork twice: the parent must not be consumed
			f, err := parent.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := stepToCompletion(t, f); !reflect.DeepEqual(ref, got) {
				t.Errorf("%s fork %d: forked result differs from Run", job.Name, fork)
			}
		}
	}
}

// TestStepperValidation mirrors Run's validation contract.
func TestStepperValidation(t *testing.T) {
	if _, err := NewStepper(Options{}, nil); err == nil {
		t.Fatal("nil cluster accepted")
	}
	c := cluster.NewM4LargeCluster(2)
	if _, err := NewStepper(Options{Cluster: c}, nil); err == nil {
		t.Fatal("empty run list accepted")
	}
	s, err := NewStepper(Options{Cluster: c, TrackNode: -1},
		[]JobRun{{Job: galleryJobs(c, 0.2)[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("result with pending events did not error")
	}
}

// jctSum is Σ JCT(i) over a result's jobs, in job order: the answer
// DrainJCTSum gives for the same world.
func jctSum(r *Result) float64 {
	sum := 0.0
	for i := range r.JobEnd {
		sum += r.JCT(i)
	}
	return sum
}

// TestAnswerOnlyWorld: an answer-only world and every fork of it step the
// run's trajectory unchanged, give the full run's Σ JCT bit for bit, and
// have no Result; the world it was forked from keeps its own.
func TestAnswerOnlyWorld(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	rng := rand.New(rand.NewSource(29))
	jobs := galleryJobs(c, 0.25)
	for _, opt := range []Options{
		{Cluster: c, TrackNode: 0, TrackCluster: true},
		chaosOptions(c, chaosInjector(t)),
	} {
		for i, job := range jobs {
			other := jobs[(i+1)%len(jobs)]
			runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}, {Job: other, Arrival: 20, Delays: randomDelays(other, rng)}}
			ref, err := Run(opt, runs)
			if err != nil {
				t.Fatal(err)
			}
			want := jctSum(ref)
			full := pausedAt(t, opt, runs, ref.Makespan/3)
			w, err := full.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			w.AnswerOnly()
			if err := w.AdvanceBefore(ref.Makespan / 2); err != nil {
				t.Fatal(err)
			}
			fork, err := w.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			grand, err := fork.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*Stepper{"world": w, "fork": fork, "fork of a fork": grand} {
				for s.HasPendingEvents() {
					if err := s.StepNextEvent(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Result(); err == nil || !strings.Contains(err.Error(), "answer-only") {
					t.Errorf("%s/%s: Result of an answer-only %s = %v, want an answer-only error", job.Name, other.Name, name, err)
				}
				if s.Events() != ref.Events || s.Clock() != slices.Max(ref.JobEnd) {
					t.Errorf("%s/%s: answer-only %s ends at event %d, t=%v; the full run at %d, %v",
						job.Name, other.Name, name, s.Events(), s.Clock(), ref.Events, ref.JobEnd)
				}
				got, _, err := s.DrainJCTSum(math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s/%s: answer-only %s drains Σ JCT %v, the full run %v", job.Name, other.Name, name, got, want)
				}
			}
			if got := stepToCompletion(t, full); !reflect.DeepEqual(ref, got) {
				t.Errorf("%s/%s: the world an answer-only fork came from lost its result", job.Name, other.Name)
			}
		}
	}
}

// TestReadyTimeByPosition steps a world holding an unmasked job and a
// masked one arriving later. At every step ReadyTime(job, pos) reports
// false until the stage is ready and then, from that step on, the ready
// time the full run's timeline records; it reports false, without
// panicking, for masked-off stages, for positions and jobs out of range,
// and once the stepper is retired.
func TestReadyTimeByPosition(t *testing.T) {
	c := cluster.NewM4LargeCluster(3)
	jobs := galleryJobs(c, 0.25)
	masked := jobs[2]
	mask := make([]bool, masked.Graph.Len())
	for p := range mask {
		mask[p] = p%3 != 1
	}
	opt := Options{Cluster: c, TrackNode: -1}
	runs := []JobRun{{Job: jobs[0]}, {Job: masked, Arrival: 15, Active: mask}}
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStepper(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	ready := [][]bool{make([]bool, jobs[0].Graph.Len()), make([]bool, masked.Graph.Len())}
	check := func(step int) {
		for _, job := range []int{-1, 2, 1 << 20} {
			if _, ok := s.ReadyTime(job, 0); ok {
				t.Fatalf("step %d: job %d out of range reports a ready time", step, job)
			}
		}
		for j, run := range runs {
			ids := run.Job.Graph.StagesView()
			for p := -2; p < len(ids)+2; p++ {
				tr, ok := s.ReadyTime(j, p)
				switch {
				case p < 0 || p >= len(ids):
					if ok {
						t.Fatalf("step %d: job %d position %d out of range reports ready at %v", step, j, p, tr)
					}
				case run.Active != nil && !run.Active[p]:
					if ok {
						t.Fatalf("step %d: job %d masked-off position %d reports ready at %v", step, j, p, tr)
					}
				case ok:
					if tl := ref.Timeline(j, ids[p]); tl == nil || tl.Ready != tr {
						t.Fatalf("step %d: job %d position %d ready at %v, the run's timeline %+v", step, j, p, tr, tl)
					}
					ready[j][p] = true
				case ready[j][p]:
					t.Fatalf("step %d: job %d position %d no longer reports its ready time", step, j, p)
				}
			}
		}
	}
	for step := 0; s.HasPendingEvents(); step++ {
		check(step)
		if err := s.StepNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	check(-1)
	for j, run := range runs {
		for p, id := range run.Job.Graph.StagesView() {
			if (run.Active == nil || run.Active[p]) && !ready[j][p] {
				t.Errorf("job %d stage %d (position %d) never reported ready", j, id, p)
			}
		}
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ReadyTime(0, 0); ok {
		t.Error("a retired stepper reports a ready time")
	}
}
