package perfmodel

import (
	"math"
	"sort"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// oneNode builds the single-node cluster shape the planning evaluators
// run on (sim.Coarsen output), without importing sim.
func oneNode() *cluster.Cluster {
	return &cluster.Cluster{Nodes: []cluster.Node{
		{ID: 0, Executors: 64, NetBW: cluster.MBps(4000), DiskBW: cluster.MBps(3200)},
	}}
}

func boundEval(t *testing.T, c *cluster.Cluster, j *workload.Job, cfg BoundConfig) *BoundEvaluator {
	t.Helper()
	b, err := NewBoundEvaluator(c, j, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// twoParallel is the minimal interleaving fixture: two identical
// independent stages plus a sink.
func twoParallel(ref *cluster.Cluster) *workload.Job {
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1, Name: "a"})
	g.MustAdd(dag.Stage{ID: 2, Name: "b"})
	g.MustAdd(dag.Stage{ID: 3, Name: "sink", Parents: []dag.StageID{1, 2}})
	p := workload.FromPhases(ref, workload.PhaseSpec{ReadSec: 40, ComputeSec: 40, WriteSec: 20})
	tail := workload.FromPhases(ref, workload.PhaseSpec{ReadSec: 5, ComputeSec: 5, WriteSec: 1})
	return &workload.Job{Name: "twoParallel", Graph: g,
		Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p, 3: tail}}
}

func TestBoundsOrderingGallery(t *testing.T) {
	ref := oneNode()
	jobs := workload.PaperWorkloads(ref, 1)
	for name, j := range workload.Gallery(ref, 1) {
		jobs[name] = j
	}
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		j := jobs[name]
		b := boundEval(t, ref, j, BoundConfig{IncludeWorkBound: true})
		pb := boundEval(t, ref, j, BoundConfig{})
		for _, delays := range []map[dag.StageID]float64{nil, {1: 25}, {2: 10, 3: 40}} {
			lo := b.Lower(delays)
			if !(lo > 0) || math.IsInf(lo, 0) {
				t.Fatalf("%s: degenerate lower bound %v", name, lo)
			}
			// Without the work term the lower bound stays at or below the
			// prediction.
			plo, pred := pb.Lower(delays), predict(pb, delays)
			if math.IsNaN(pred) || plo > pred {
				t.Fatalf("%s: want Lower ≤ Predict, got %v below %v", name, pred, plo)
			}
			if again := predict(pb, delays); again != pred {
				t.Fatalf("%s: prediction not deterministic: %v then %v", name, pred, again)
			}
			// Determinism across repeated calls (scratch reuse).
			if again := b.Lower(delays); again != lo {
				t.Fatalf("%s: lower bound not deterministic: %v then %v", name, lo, again)
			}
		}
	}
}

// ScanLower's incremental decomposition must agree with the full lower
// bound at every candidate: max(rest, through+x) == Lower(delays ∪ {kid:x}).
func TestScanLowerMatchesFullLower(t *testing.T) {
	ref := oneNode()
	for name, j := range workload.PaperWorkloads(ref, 1) {
		b := boundEval(t, ref, j, BoundConfig{IncludeWorkBound: true})
		delays := map[dag.StageID]float64{}
		for _, kid := range j.Graph.Stages() {
			through, rest, ok := b.ScanLower(kid, delays)
			if !ok {
				t.Fatalf("%s: ScanLower(%d) not ok", name, kid)
			}
			for _, x := range []float64{0, 7.5, 123} {
				inc := math.Max(rest, through+x)
				delays[kid] = x
				full := b.Lower(delays)
				delete(delays, kid)
				if math.Abs(inc-full) > 1e-6*(1+full) {
					t.Fatalf("%s stage %d x=%v: incremental %v != full %v", name, kid, x, inc, full)
				}
			}
			// Spread some permanent delays around so later stages scan
			// against a non-trivial vector.
			delays[kid] = float64(kid) * 3
		}
	}
}

func TestScanLowerInactiveKid(t *testing.T) {
	ref := oneNode()
	j := twoParallel(ref)
	b := boundEval(t, ref, j, BoundConfig{})
	b.SetActive([]bool{true, false, false})
	if _, _, ok := b.ScanLower(2, nil); ok {
		t.Fatal("ScanLower on an inactive stage must report !ok")
	}
	if _, _, ok := b.ScanLower(99, nil); ok {
		t.Fatal("ScanLower on an unknown stage must report !ok")
	}
}

// The aggregate-capacity term must dominate the critical path on a wide
// fan of identical stages: N parallel stages of solo time T cannot finish
// before ~N·T_net on one NIC even though the critical path is one stage.
func TestWorkBoundDominatesWideFan(t *testing.T) {
	ref := oneNode()
	g := dag.New()
	p := workload.FromPhases(ref, workload.PhaseSpec{ReadSec: 30, ComputeSec: 1, WriteSec: 1})
	profiles := map[dag.StageID]workload.StageProfile{}
	for i := 1; i <= 8; i++ {
		g.MustAdd(dag.Stage{ID: dag.StageID(i)})
		profiles[dag.StageID(i)] = p
	}
	j := &workload.Job{Name: "fan", Graph: g, Profiles: profiles}
	with := boundEval(t, ref, j, BoundConfig{IncludeWorkBound: true}).Lower(nil)
	without := boundEval(t, ref, j, BoundConfig{}).Lower(nil)
	if with <= without {
		t.Fatalf("work term should raise the lower bound: with=%v without=%v", with, without)
	}
	if with < 8*30*0.9 {
		t.Fatalf("8 stages × 30 s of NIC work bound %v, want ≈ 240", with)
	}
}

// The prediction must be delay-sensitive — separating two overlapping
// stages, or interleaving their phases, removes contention stretch — or
// approximate mode could never prefer a non-zero delay.
func TestEstimateDiscriminatesDelays(t *testing.T) {
	ref := oneNode()
	j := twoParallel(ref)
	b := boundEval(t, ref, j, BoundConfig{})
	overlapped := predict(b, nil)
	separated := predict(b, map[dag.StageID]float64{2: 100})
	interleaved := predict(b, map[dag.StageID]float64{2: 40})
	if !(separated < overlapped) || !(interleaved < overlapped) {
		t.Fatalf("prediction must drop when overlap is delayed away: overlapped=%v separated=%v interleaved=%v",
			overlapped, separated, interleaved)
	}
}

// Restriction semantics: inactive stages contribute nothing, and an edge
// through an inactive middle stage is severed (the restricted DAG lets
// the endpoints overlap).
func TestSetActiveRestricts(t *testing.T) {
	ref := oneNode()
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2, Parents: []dag.StageID{1}})
	g.MustAdd(dag.Stage{ID: 3, Parents: []dag.StageID{2}})
	p := workload.FromPhases(ref, workload.PhaseSpec{ReadSec: 10, ComputeSec: 10, WriteSec: 5})
	j := &workload.Job{Name: "chain", Graph: g,
		Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p, 3: p}}
	b := boundEval(t, ref, j, BoundConfig{})
	full := b.Lower(nil)
	b.SetActive([]bool{true, false, true})
	cut := b.Lower(nil)
	if !(cut < full) {
		t.Fatalf("dropping the middle stage must shorten the chain: full=%v cut=%v", full, cut)
	}
	// A delay on the inactive stage 2 must not leak into the bound.
	if a := b.Lower(map[dag.StageID]float64{2: 1000}); a != cut {
		t.Fatalf("inactive stage's delay must be ignored: %v vs %v", a, cut)
	}
	b.SetActive(nil)
	if back := b.Lower(nil); back != full {
		t.Fatalf("SetActive(nil) must restore the full job: %v vs %v", back, full)
	}
}
