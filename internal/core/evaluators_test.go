package core

import (
	"math"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

func TestRestrictJob(t *testing.T) {
	c := c30()
	j := workload.LDA(c, 0.2)
	active := map[dag.StageID]bool{2: true, 3: true}
	sub, err := restrictJob(j, active)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Graph.Len() != 2 {
		t.Fatalf("restricted graph has %d stages, want 2", sub.Graph.Len())
	}
	if sub.Graph.Stage(1) != nil {
		t.Fatal("stage 1 must be excluded")
	}
	// Stage 3's parent 2 is active and must be kept.
	if got := sub.Graph.Parents(3); len(got) != 1 || got[0] != 2 {
		t.Fatalf("stage 3 parents = %v, want [2]", got)
	}
	// nil active = identity.
	same, err := restrictJob(j, nil)
	if err != nil || same != j {
		t.Fatal("nil active must return the job unchanged")
	}
}

func TestRestrictJobDropsCrossEdges(t *testing.T) {
	c := c30()
	j := workload.CosineSimilarity(c, 0.2) // S5 ← {S2, S4}
	active := map[dag.StageID]bool{2: true, 5: true}
	sub, err := restrictJob(j, active)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Graph.Parents(5); len(got) != 1 || got[0] != 2 {
		t.Fatalf("stage 5 parents = %v, want [2] (4 inactive)", got)
	}
}

func TestSimEvaluatorMatchesDirectSim(t *testing.T) {
	c := c30()
	j := workload.LDA(c, 0.2)
	ev := newSimEvaluator(c, j, false, Arrival{})
	got, err := ev.Makespan(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Direct coarse sim of the full job: job end must coincide.
	res, err := sim.Run(sim.Options{Cluster: sim.Coarsen(c), TrackNode: -1}, []sim.JobRun{{Job: j}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-res.JCT(0)) > 1e-6 {
		t.Fatalf("evaluator %.3f != sim %.3f", got, res.JCT(0))
	}
}

// The never-worse guard: whatever the search does, the returned schedule
// never predicts worse than stock, and the simulated JCT with the sim
// evaluator (which matches the measurement cluster when coarse == fine)
// never regresses.
func TestNeverWorseGuardOnRandomJobs(t *testing.T) {
	c := sim.Coarsen(cluster.NewM4LargeCluster(4))
	for seed := int64(0); seed < 12; seed++ {
		job := workload.RandomJob("nw", c, 9, randFrom(seed))
		s, err := Compute(Options{Cluster: c, MaxCandidates: 8}, job)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan > s.StockMakespan+1e-6 {
			t.Fatalf("seed %d: makespan %.1f > stock %.1f", seed, s.Makespan, s.StockMakespan)
		}
		stock, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: job}})
		if err != nil {
			t.Fatal(err)
		}
		delayed, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: job, Delays: s.Delays}})
		if err != nil {
			t.Fatal(err)
		}
		if delayed.JCT(0) > stock.JCT(0)*1.001 {
			t.Fatalf("seed %d: delays regressed the real JCT %.1f > %.1f", seed, delayed.JCT(0), stock.JCT(0))
		}
	}
}
