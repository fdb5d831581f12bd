package sim

import (
	"math"
	"math/rand"
	"reflect"
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
	variants := []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Cluster: c, TrackNode: -1}},
		{"tracked", Options{Cluster: c, TrackNode: 0, TrackOccupancy: true, TrackCluster: true}},
		{"chaos", chaosOptions(c, chaosInjector(t))},
	}
	for _, job := range galleryJobs(c, 0.3) {
		for _, v := range variants {
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
