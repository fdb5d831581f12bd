package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
)

// FuzzDrainBound holds DrainJCTSum's limit to its two promises on random
// worlds: gallery and paper jobs, more of them injected mid-flight, under
// either fairness, with AggShuffle, with faults and speculation (jobs may
// abort), or placed over links. Each world is forked at a random
// AdvanceBefore boundary, some of its jobs not yet arrived there. A world
// answer-only from the start keeps the bound all along; any other derives
// it when its fork is drained.
//   - A drain with limit +Inf answers the from-scratch run's Σ JCT bit
//     for bit and is never cut.
//   - The live bound, less its slack, never exceeds that answer: a drain
//     whose limit is one ulp past the answer is never cut, and a drain cut
//     at a random limit returns a floor at or above the limit and at or
//     below the answer; one not cut answers exactly.
func FuzzDrainBound(f *testing.F) {
	// mode: bit 0 FairByJob, bit 1 AggShuffle, bit 2 faults with
	// speculation, bit 3 placed over links (which excludes the two
	// before it), bit 4 answer-only from the start.
	f.Add(uint8(0), int64(1), 0.0, uint8(0), uint8(0), 0.5)
	f.Add(uint8(1), int64(2), 0.3, uint8(0), uint8(1), 0.9)
	f.Add(uint8(2), int64(3), 0.6, uint8(1), uint8(2), 0.99)
	f.Add(uint8(3), int64(4), 0.5, uint8(2), uint8(1), 0.7)
	f.Add(uint8(4), int64(5), 0.2, uint8(4), uint8(0), 0.8)
	f.Add(uint8(5), int64(6), 0.7, uint8(5), uint8(2), 0.95)
	f.Add(uint8(6), int64(7), 0.4, uint8(8), uint8(0), 0.6)
	f.Add(uint8(7), int64(8), 0.1, uint8(9), uint8(2), 0.97)
	f.Add(uint8(8), int64(9), 0.9, uint8(3), uint8(1), 1.1)
	f.Add(uint8(9), int64(10), 0.0, uint8(6), uint8(2), 0.3)
	f.Add(uint8(10), int64(11), 1.5, uint8(0), uint8(2), 0.9)
	f.Add(uint8(11), int64(12), 0.5, uint8(16), uint8(2), 0.9)
	f.Add(uint8(12), int64(13), 0.3, uint8(19), uint8(1), 0.8)
	f.Add(uint8(13), int64(14), 0.6, uint8(20), uint8(2), 0.95)
	f.Add(uint8(14), int64(15), 0.2, uint8(24), uint8(2), 0.7)
	c := cluster.NewM4LargeCluster(4)
	jobs := everyJob(c, 0.2)
	f.Fuzz(func(t *testing.T, jobIdx uint8, seed int64, frac float64, mode uint8, inject uint8, limFrac float64) {
		if math.IsNaN(frac) || frac < 0 || frac > 2 || math.IsNaN(limFrac) || limFrac < 0 || limFrac > 2 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		placed := mode&8 != 0
		opt := Options{Cluster: c, TrackNode: -1, FairByJob: mode&1 != 0}
		if placed {
			opt.Links = uniformLinks(len(c.Nodes), c.Nodes[0].NetBW/4)
		} else {
			opt.AggShuffle = mode&2 != 0
			if mode&4 != 0 {
				inj, err := faults.NewInjector(faults.FaultPlan{
					Seed: seed, TaskFailureProb: 0.15, StragglerFrac: 0.2, StragglerFactor: 4,
					Crashes: []faults.NodeCrash{{Node: 1, At: 15}},
				})
				if err != nil {
					t.Fatal(err)
				}
				opt.Faults, opt.MaxAttempts, opt.Speculation = inj, 2, true
			}
		}
		var runs []JobRun
		at := 0.0
		for i := 0; i <= int(inject%3); i++ {
			job := jobs[(int(jobIdx)+i*7)%len(jobs)]
			r := JobRun{Job: job, Arrival: at, Delays: randomDelays(job, rng)}
			if placed {
				r.Placement = randomPlacement(job, len(c.Nodes), rng)
			}
			runs = append(runs, r)
			at += float64(rng.Float64() * 40)
		}
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		want := jctSum(ref)

		// Grow the world by Inject and pause it at the fork point; runs
		// arriving later are injected there, so they have not arrived.
		fork := frac * ref.Makespan
		w, err := NewStepper(opt, runs[:1])
		if err != nil {
			t.Fatal(err)
		}
		if mode&16 != 0 {
			w.AnswerOnly()
		}
		for _, r := range runs[1:] {
			if err := w.AdvanceBefore(min(r.Arrival, fork)); err != nil {
				t.Fatal(err)
			}
			if err := w.Inject(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.AdvanceBefore(fork); err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("%d jobs, mode %d, forked at %v of %v", len(runs), mode, fork, ref.Makespan)
		if mode&16 != 0 {
			requireTrackedWork(t, ctx, w)
		}

		drain := func(limit float64) (float64, bool) {
			t.Helper()
			fk, err := w.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			sum, cut, err := fk.DrainJCTSum(limit)
			if err != nil {
				t.Fatalf("%s: drain with limit %v: %v", ctx, limit, err)
			}
			return sum, cut
		}
		if got, cut := drain(math.Inf(1)); cut || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: unlimited drain %v (cut %v), the full run's Σ JCT %v", ctx, got, cut, want)
		}
		if lb, cut := drain(math.Nextafter(want, math.Inf(1))); cut {
			t.Fatalf("%s: the bound less its slack reached %v past the answer %v", ctx, lb, want)
		}
		limit := limFrac * want
		got, cut := drain(limit)
		switch {
		case cut && (got < limit || got > want):
			t.Fatalf("%s: cut at limit %v with floor %v, answer %v", ctx, limit, got, want)
		case !cut && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%s: uncut drain at limit %v answered %v, want %v", ctx, limit, got, want)
		}
	})
}

// requireTrackedWork steps a fork of the answer-only world s to its end
// and fails unless, at every step, the bound it kept step by step is the
// one derived afresh from its stage slab, up to float rounding.
func requireTrackedWork(t *testing.T, ctx string, s *Stepper) {
	t.Helper()
	f, err := s.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }
	for step := 0; f.HasPendingEvents(); step++ {
		e := f.e
		d := e.clone()
		d.trackWork()
		ok := e.lbArrived == d.lbArrived && near(e.lbDone, d.lbDone) && near(e.lbStarts, d.lbStarts) && near(e.lbNeed, d.lbNeed)
		for j := range e.work {
			a, b := e.work[j], d.work[j]
			ok = ok && a.done == b.done && a.arrived == b.arrived && near(a.need, b.need)
			for ph := range a.left {
				ok = ok && near(a.left[ph], b.left[ph])
			}
		}
		if !ok {
			t.Fatalf("%s: step %d at %v: kept bound %+v (done %v, starts %v, need %v, arrived %d), derived %+v (%v, %v, %v, %d)",
				ctx, step, e.now, e.work, e.lbDone, e.lbStarts, e.lbNeed, e.lbArrived, d.work, d.lbDone, d.lbStarts, d.lbNeed, d.lbArrived)
		}
		d.release()
		if err := f.StepNextEvent(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
}
