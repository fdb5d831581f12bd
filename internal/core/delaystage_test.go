package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

func c30() *cluster.Cluster { return cluster.NewM4LargeCluster(30) }

func computeOK(t *testing.T, opt Options, j *workload.Job) *Schedule {
	t.Helper()
	s, err := Compute(opt, j)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	return s
}

// simJCT runs the job under the given delays and returns the JCT.
func simJCT(t *testing.T, c *cluster.Cluster, j *workload.Job, delays map[dag.StageID]float64) float64 {
	t.Helper()
	res, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: j, Delays: delays}})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return res.JCT(0)
}

func TestComputeValidation(t *testing.T) {
	j := workload.LDA(c30(), 1)
	if _, err := Compute(Options{}, j); err == nil {
		t.Error("nil cluster must error")
	}
	if _, err := Compute(Options{Cluster: c30()}, nil); err == nil {
		t.Error("nil job must error")
	}
	if _, err := Compute(Options{Cluster: c30(), Order: Order(99)}, j); err == nil {
		t.Error("bad order must error")
	}
}

func TestSequentialChainNoDelays(t *testing.T) {
	// A pure chain has no parallel stages: X must be empty.
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2, Parents: []dag.StageID{1}})
	c := c30()
	p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 10, ComputeSec: 10, WriteSec: 1})
	j := &workload.Job{Name: "chain", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
	s := computeOK(t, Options{Cluster: c}, j)
	if len(s.Delays) != 0 || len(s.K) != 0 {
		t.Fatalf("chain job: delays %v, K %v", s.Delays, s.K)
	}
}

func TestDelaysNonNegative(t *testing.T) {
	c := c30()
	for name, j := range workload.PaperWorkloads(c, 0.2) {
		s := computeOK(t, Options{Cluster: c}, j)
		for id, d := range s.Delays {
			if d < 0 {
				t.Errorf("%s stage %d delay %v < 0", name, id, d)
			}
		}
	}
}

// The core guarantee: the schedule's predicted makespan never exceeds the
// stock makespan (x=0 is always a candidate).
func TestNeverWorseThanStockPredicted(t *testing.T) {
	c := c30()
	for name, j := range workload.PaperWorkloads(c, 0.2) {
		s := computeOK(t, Options{Cluster: c}, j)
		if s.Makespan > s.StockMakespan+1e-6 {
			t.Errorf("%s: makespan %v > stock %v", name, s.Makespan, s.StockMakespan)
		}
	}
}

// End-to-end: the computed delays must actually shorten the simulated JCT
// of the paper workloads — the paper's headline result (Fig. 10).
func TestDelaysImproveSimulatedJCT(t *testing.T) {
	c := c30()
	for name, j := range workload.PaperWorkloads(c, 0.2) {
		s := computeOK(t, Options{Cluster: c}, j)
		stock := simJCT(t, c, j, nil)
		delayed := simJCT(t, c, j, s.Delays)
		if delayed > stock*1.005 {
			t.Errorf("%s: delayed JCT %.1f worse than stock %.1f (X=%v)", name, delayed, stock, s.Delays)
		}
		t.Logf("%s: stock %.1f → delayed %.1f (%.1f%%), X=%v",
			name, stock, delayed, 100*(stock-delayed)/stock, s.Delays)
	}
}

func TestALSImproves(t *testing.T) {
	c := cluster.NewM4LargeCluster(3)
	j := workload.ALS(c, 1)
	s := computeOK(t, Options{Cluster: c}, j)
	stock := simJCT(t, c, j, nil)
	delayed := simJCT(t, c, j, s.Delays)
	if delayed >= stock {
		t.Fatalf("ALS: delayed %.1f !< stock %.1f", delayed, stock)
	}
	if len(s.Delays) == 0 {
		t.Fatal("ALS should delay at least one stage")
	}
}

func TestOrdersProduceSchedules(t *testing.T) {
	c := c30()
	j := workload.TriangleCount(c, 0.2)
	for _, o := range []Order{Descending, Ascending, Random} {
		s := computeOK(t, Options{Cluster: c, Order: o, Seed: 1}, j)
		if s.Makespan > s.StockMakespan+1e-6 {
			t.Errorf("order %v: makespan regressed", o)
		}
	}
}

func TestOrderString(t *testing.T) {
	if Descending.String() != "descending" || Ascending.String() != "ascending" || Random.String() != "random" {
		t.Fatal("order names wrong")
	}
	if Order(42).String() == "" {
		t.Fatal("unknown order must still format")
	}
}

func TestModelEvaluatorAgreesDirectionally(t *testing.T) {
	c := c30()
	j := workload.CosineSimilarity(c, 0.2)
	simSched := computeOK(t, Options{Cluster: c}, j)
	modelSched := computeOK(t, Options{Cluster: c, Approximate: true}, j)
	stock := simJCT(t, c, j, nil)
	simJCTv := simJCT(t, c, j, simSched.Delays)
	modelJCTv := simJCT(t, c, j, modelSched.Delays)
	// Neither the sim evaluator nor the analytic model may hurt.
	if simJCTv > stock*1.005 || modelJCTv > stock*1.01 {
		t.Fatalf("stock %.1f, sim-eval %.1f, approx %.1f", stock, simJCTv, modelJCTv)
	}
}

func TestRandomOrderDeterministicPerSeed(t *testing.T) {
	c := c30()
	j := workload.TriangleCount(c, 0.2)
	a := computeOK(t, Options{Cluster: c, Order: Random, Seed: 7}, j)
	b := computeOK(t, Options{Cluster: c, Order: Random, Seed: 7}, j)
	if len(a.Delays) != len(b.Delays) {
		t.Fatal("same seed, different schedules")
	}
	for id, d := range a.Delays {
		if b.Delays[id] != d {
			t.Fatalf("same seed, stage %d delay %v vs %v", id, d, b.Delays[id])
		}
	}
}

func TestCandidates(t *testing.T) {
	cs := candidates(10, 1, 64, false)
	if len(cs) != 11 || cs[0] != 0 || cs[10] != 10 {
		t.Fatalf("candidates(10,1) = %v", cs)
	}
	cs = candidates(0, 1, 64, false)
	if len(cs) != 1 || cs[0] != 0 {
		t.Fatalf("candidates(0,1) = %v", cs)
	}
	cs = candidates(1000, 1, 5, false)
	if len(cs) != 5 || cs[4] != 1000 {
		t.Fatalf("adaptive candidates = %v", cs)
	}
	// The spread grid keeps the slot count but reaches upper: 10.5 s at
	// 1 s slots is 11 candidates 1.05 s apart; capped, it matches the
	// adaptive grid; under one slot it is {0}.
	cs = candidates(10.5, 1, 64, true)
	if len(cs) != 11 || cs[1] != 10.5/10 || cs[10] != 10.5 {
		t.Fatalf("spread candidates = %v", cs)
	}
	if cs := candidates(1000, 1, 5, true); len(cs) != 5 || cs[4] != 1000 {
		t.Fatalf("capped spread candidates = %v", cs)
	}
	if cs := candidates(0.5, 1, 64, true); len(cs) != 1 || cs[0] != 0 {
		t.Fatalf("spread candidates under one slot = %v", cs)
	}
	// Edge contract (see the function comment): each case must yield the
	// defined single-candidate slice, not a loop accident.
	for _, tc := range []struct {
		name        string
		upper, slot float64
		maxN        int
	}{
		{"upper<slot", 0.5, 1, 64},
		{"slot==0", 10, 0, 64}, // normalized to 1 s slots → 11 candidates
		{"maxN==1", 10, 1, 1},
		{"negative upper", -3, 1, 64},
		{"NaN upper", math.NaN(), 1, 64},
		{"NaN slot", 10, math.NaN(), 64},
		{"maxN==0", 10, 1, 0},
		{"+Inf upper", math.Inf(1), 1, 64},
		{"tiny slot", 1e7, 1e-12, 64}, // upper/slot overflows an int → maxN candidates
	} {
		cs := candidates(tc.upper, tc.slot, tc.maxN, false)
		switch tc.name {
		case "slot==0", "NaN slot":
			if len(cs) != 11 || cs[0] != 0 || cs[10] != 10 {
				t.Fatalf("%s: candidates(%v,%v,%d) = %v, want 0..10",
					tc.name, tc.upper, tc.slot, tc.maxN, cs)
			}
		case "tiny slot":
			if len(cs) != tc.maxN || cs[0] != 0 || cs[tc.maxN-1] != tc.upper {
				t.Fatalf("%s: candidates(%v,%v,%d) = %v, want %d spread to %v",
					tc.name, tc.upper, tc.slot, tc.maxN, cs, tc.maxN, tc.upper)
			}
		default:
			if len(cs) != 1 || cs[0] != 0 {
				t.Fatalf("%s: candidates(%v,%v,%d) = %v, want [0]",
					tc.name, tc.upper, tc.slot, tc.maxN, cs)
			}
		}
	}
}

func TestEvaluationsCounted(t *testing.T) {
	c := c30()
	j := workload.LDA(c, 0.2)
	s := computeOK(t, Options{Cluster: c, MaxCandidates: 8}, j)
	if s.Evaluations < len(s.K) {
		t.Fatalf("evaluations %d < |K| %d", s.Evaluations, len(s.K))
	}
	if s.ComputeTime <= 0 {
		t.Fatal("compute time not recorded")
	}
}

func TestPathsCoverAllOfK(t *testing.T) {
	c := c30()
	j := workload.TriangleCount(c, 0.2)
	s := computeOK(t, Options{Cluster: c}, j)
	covered := map[dag.StageID]bool{}
	for _, p := range s.Paths {
		for _, id := range p.Stages {
			covered[id] = true
		}
	}
	for _, id := range s.K {
		if !covered[id] {
			t.Errorf("stage %d in K but on no path", id)
		}
	}
}

func TestSortedIDs(t *testing.T) {
	m := map[dag.StageID]float64{3: 1, 1: 1, 2: 1}
	ids := sortedIDs(m)
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("sortedIDs = %v", ids)
	}
}

// randFrom builds a deterministic rng for the random-job tests.
// sortedIDs is a helper for deterministic map iteration.
func sortedIDs(m map[dag.StageID]float64) []dag.StageID {
	ids := make([]dag.StageID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func randFrom(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The gallery workloads (iterative PageRank, bushy SQL join, ETL
// pipeline) must also benefit from delay scheduling — DAG shapes beyond
// the paper's four.
func TestGalleryWorkloadsImprove(t *testing.T) {
	c := c30()
	for name, j := range workload.Gallery(c, 0.2) {
		s := computeOK(t, Options{Cluster: c}, j)
		stock := simJCT(t, c, j, nil)
		delayed := simJCT(t, c, j, s.Delays)
		if delayed > stock*1.005 {
			t.Errorf("%s: delayed %.1f worse than stock %.1f", name, delayed, stock)
		}
		t.Logf("%s: stock %.1f → %.1f (−%.1f%%)", name, stock, delayed, 100*(stock-delayed)/stock)
	}
}

// TestPlanStatsAdd: Add sums every counter of the record, the embedded
// Prune's included. Each int field of two records gets a distinct value,
// so a counter Add misses (or adds into the wrong field) shows.
func TestPlanStatsAdd(t *testing.T) {
	var a, b PlanStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	var ints []reflect.StructField
	for _, f := range reflect.VisibleFields(va.Type()) {
		switch f.Type.Kind() {
		case reflect.Int:
			ints = append(ints, f)
		case reflect.Struct: // an embedded group; its fields are visible too
		default:
			t.Fatalf("PlanStats field %s is a %s: extend this test", f.Name, f.Type.Kind())
		}
	}
	if len(ints) < 10 {
		t.Fatalf("found %d int fields, want at least 10", len(ints))
	}
	for i, f := range ints {
		va.FieldByIndex(f.Index).SetInt(int64(i + 1))
		vb.FieldByIndex(f.Index).SetInt(int64(1000 * (i + 1)))
	}
	a.Add(b)
	for i, f := range ints {
		if got, want := va.FieldByIndex(f.Index).Int(), int64(1001*(i+1)); got != want {
			t.Errorf("PlanStats.%s = %d after Add, want %d", f.Name, got, want)
		}
	}
}
