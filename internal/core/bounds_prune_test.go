package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/perfmodel"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// sandwichEps is the relative tolerance of the bound-sandwich checks: the
// analytic lower bound is an exact closed form, but the simulator
// accumulates float integration error over thousands of steps.
const sandwichEps = sim.ScanTolerance

// checkSandwich asserts lower ≤ simulated makespan for one (job, delays)
// configuration on the given cluster, fault-free, and that the analytic
// tier's pruning bound (no work term) stays sound against the prediction
// it prunes: lower ≤ prediction.
func checkSandwich(t *testing.T, c *cluster.Cluster, j *workload.Job,
	delays map[dag.StageID]float64, label string) {
	t.Helper()
	b, err := perfmodel.NewBoundEvaluator(c, j, perfmodel.BoundConfig{IncludeWorkBound: true})
	if err != nil {
		t.Fatalf("%s: NewBoundEvaluator: %v", label, err)
	}
	lo := b.Lower(delays)
	pb, err := perfmodel.NewBoundEvaluator(c, j, perfmodel.BoundConfig{})
	if err != nil {
		t.Fatalf("%s: NewBoundEvaluator: %v", label, err)
	}
	pos := make([]float64, j.Graph.Len())
	for id, x := range delays {
		pos[j.Graph.Pos(id)] = x
	}
	if plo, pred := pb.Lower(delays), pb.PredictAt(pos); plo > pred {
		t.Errorf("%s: prediction %.9f below the analytic lower bound %.9f", label, pred, plo)
	}
	res, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1},
		[]sim.JobRun{{Job: j, Delays: delays}})
	if err != nil {
		t.Fatalf("%s: sim: %v", label, err)
	}
	mk := res.JCT(0)
	if lo > float64(mk*(1+sandwichEps))+sandwichEps {
		t.Errorf("%s: lower bound %.9f above sim makespan %.9f", label, lo, mk)
	}
}

// sandwichDelayVectors builds deterministic delay vectors exercising the
// no-delay, single-delay and everyone-delayed regimes.
func sandwichDelayVectors(j *workload.Job) []map[dag.StageID]float64 {
	ids := j.Graph.Stages()
	one := map[dag.StageID]float64{ids[len(ids)/2]: 25}
	all := make(map[dag.StageID]float64, len(ids))
	for i, id := range ids {
		all[id] = float64(i%7) * 4.5
	}
	return []map[dag.StageID]float64{nil, one, all}
}

// TestBoundSandwichGallery is the tentpole property: on the planning
// cluster (the coarse aggregate node Alg. 1 evaluates against), the
// analytic lower bound stays under the exact fluid-sim makespan and the
// prediction for every gallery and paper workload, fault-free, across
// delay vectors.
func TestBoundSandwichGallery(t *testing.T) {
	c := sim.Coarsen(c30())
	jobs := workload.PaperWorkloads(c, 1)
	for name, j := range workload.Gallery(c, 1) {
		jobs[name] = j
	}
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		j := jobs[name]
		for vi, delays := range sandwichDelayVectors(j) {
			checkSandwich(t, c, j, delays, fmt.Sprintf("%s/delays%d", name, vi))
		}
	}
}

// randomSandwichCase builds a random DAG job and delay vector from one
// seeded Rng — shared by the table-driven property test and the fuzz
// target, so corpus seeds and CI seeds exercise identical code.
func randomSandwichCase(c *cluster.Cluster, seed int64, nStages int) (*workload.Job, map[dag.StageID]float64) {
	rng := rand.New(rand.NewSource(seed))
	j := workload.RandomJob(fmt.Sprintf("rand-%d", seed), c, nStages, rng)
	delays := map[dag.StageID]float64{}
	for _, id := range j.Graph.Stages() {
		if rng.Float64() < 0.4 {
			delays[id] = rng.Float64() * 60
		}
	}
	return j, delays
}

func TestBoundSandwichRandomJobs(t *testing.T) {
	c := sim.Coarsen(c30())
	for seed := int64(1); seed <= 12; seed++ {
		n := 4 + int(seed)*3
		j, delays := randomSandwichCase(c, seed, n)
		checkSandwich(t, c, j, delays, fmt.Sprintf("seed%d-n%d", seed, n))
	}
	// Two-stage chains whose simulated makespan passes the exact fluid
	// layout by one or two of the engine's 1e-6 s event-step floors: the
	// lower side must hold there too.
	for _, seed := range []int64{67, 119, 144} {
		j, delays := randomSandwichCase(c, seed, 2)
		checkSandwich(t, c, j, delays, fmt.Sprintf("seed%d-n2", seed))
	}
}

// FuzzBoundSandwich lets `go test -fuzz` hunt for DAG shapes that break
// the sandwich; under plain `go test` only the seed corpus runs.
func FuzzBoundSandwich(f *testing.F) {
	f.Add(int64(7), 9)
	f.Add(int64(42), 25)
	f.Add(int64(1337), 50)
	f.Add(int64(67), 2)
	// Two-stage chains where a Lower that added each stage's solo sum in
	// one term rounded one ulp above the Prediction's phase-by-phase sum.
	f.Add(int64(1266), 2)
	f.Add(int64(92), 2)
	c := sim.Coarsen(c30())
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 2 {
			n = 2
		}
		if n > 80 {
			n = 80
		}
		j, delays := randomSandwichCase(c, seed, n)
		checkSandwich(t, c, j, delays, fmt.Sprintf("fuzz-seed%d-n%d", seed, n))
	})
}

// TestTwoTierByteIdentical is the invariance regression: with the bound
// tier and the drain cutoff on (default) the chosen delay vector,
// makespan, and path audit are byte-identical to the single-tier scan
// (DisableBoundPrune), which drains every candidate to its end, on every
// gallery and paper workload, under both evaluators — and the tier and
// the cutoff must actually fire somewhere, or they are dead weight.
func TestTwoTierByteIdentical(t *testing.T) {
	c := c30()
	jobs := workload.PaperWorkloads(c, 1)
	for name, j := range workload.Gallery(c, 0.2) {
		jobs[name] = j
	}
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	totalPruned, totalCut := 0, 0
	for _, cfg := range []struct {
		label string
		opt   Options
	}{
		{"sim", Options{Cluster: c}},
		{"approx", Options{Cluster: c, Approximate: true}},
	} {
		for _, name := range names {
			j := jobs[name]
			two := computeOK(t, cfg.opt, j)
			off := cfg.opt
			off.DisableBoundPrune = true
			ref := computeOK(t, off, j)
			if len(two.Delays) != len(ref.Delays) {
				t.Fatalf("%s/%s: delay sets differ: %v vs %v", cfg.label, name, two.Delays, ref.Delays)
			}
			for id, want := range ref.Delays {
				got, ok := two.Delays[id]
				if !ok || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s stage %d: two-tier delay %v != single-tier %v",
						cfg.label, name, id, got, want)
				}
			}
			if math.Float64bits(two.Makespan) != math.Float64bits(ref.Makespan) {
				t.Fatalf("%s/%s: makespan %v != %v", cfg.label, name, two.Makespan, ref.Makespan)
			}
			if ref.Prune.Bounded != 0 || ref.Prune.Pruned != 0 || ref.CutEvals != 0 {
				t.Fatalf("%s/%s: single-tier run reported bound activity: %+v, %d cut drains",
					cfg.label, name, ref.Prune, ref.CutEvals)
			}
			if two.CutEvals > two.ForkedEvals {
				t.Fatalf("%s/%s: %d cut drains of %d forked evaluations", cfg.label, name, two.CutEvals, two.ForkedEvals)
			}
			if n := two.Prune.Exact + two.Prune.Approx; n != two.Evaluations {
				t.Fatalf("%s/%s: exact+approx counters %d != evaluations %d",
					cfg.label, name, n, two.Evaluations)
			}
			if cfg.opt.Approximate != (two.Prune.Exact == 0) {
				t.Fatalf("%s/%s: exact counter %d in the wrong mode", cfg.label, name, two.Prune.Exact)
			}
			totalPruned += two.Prune.Pruned
			totalCut += two.CutEvals
		}
	}
	if totalPruned == 0 {
		t.Fatal("bound tier never pruned a candidate across the gallery")
	}
	if totalCut == 0 {
		t.Fatal("no candidate drain was cut across the gallery")
	}
}
