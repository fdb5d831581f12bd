package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Property: with the never-worse guard attached, Alg. 1 cannot lose much
// to stock Spark even when it planned from wrong numbers. Each trial draws
// a random DAG, perturbs its profiles by ±30% — the paper's
// profiling-error regime — plans on the perturbed copy, then runs the TRUE
// job. Open-loop DelayStage loses by 10–30% on a fair share of such draws
// (delays computed for a job that does not exist); the guard watches
// observed read/completion times against the plan's predictions and
// cancels the remaining delays on drift.
//
// ε is the guard's irreducible exposure: delays spent before the first
// observable signal (a read end or stage completion) cannot be revoked,
// and on these small DAGs that window is worth up to ~10% of the JCT
// (tightening the guard's 15% drift tolerance does not shrink it —
// measured identical worst case at 0.15, 0.08, 0.04 and 0.02). The
// property that holds, and that open-loop DelayStage demonstrably lacks,
// is the capped tail.
func TestNeverWorseGuardUnderProfileNoise(t *testing.T) {
	const (
		trials = 30
		noise  = 0.30
		eps    = 0.12
	)
	c := cluster.NewM4LargeCluster(8)
	rng := rand.New(rand.NewSource(42))
	inj, err := faults.NewInjector(faults.FaultPlan{Seed: 42, MispredictNoise: noise})
	if err != nil {
		t.Fatal(err)
	}
	worse, openLoopWorse := 0, 0
	for i := 0; i < trials; i++ {
		nStages := 4 + rng.Intn(9)
		job := workload.RandomJob(fmt.Sprintf("rand-%d", i), c, nStages, rng)
		believed := inj.PerturbJob(rng, job)

		g := scheduler.GuardedDelayStage{}
		plan, err := g.DelayStage.Plan(c, believed)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		spark, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1},
			[]sim.JobRun{{Job: job}})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		open, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1},
			[]sim.JobRun{{Job: job, Delays: plan.Delays}})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if open.JCT(0) > spark.JCT(0)*(1+eps) {
			openLoopWorse++
		}
		wd, err := g.Guard(c, believed, plan)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		guarded, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, Watchdog: wd},
			[]sim.JobRun{{Job: job, Delays: plan.Delays}})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if guarded.JCT(0) > spark.JCT(0)*(1+eps) {
			worse++
			t.Errorf("trial %d (%d stages): guarded %.2f > spark %.2f × %.2f (open loop %.2f, delays %v)",
				i, nStages, guarded.JCT(0), spark.JCT(0), 1+eps, open.JCT(0), plan.Delays)
		}
	}
	if worse > 0 {
		t.Fatalf("never-worse violated in %d/%d trials", worse, trials)
	}
	// The property is only evidence if the guard had something to save:
	// open-loop DelayStage must bust the same ε bound somewhere on these
	// draws (it loses up to ~28%).
	if openLoopWorse == 0 {
		t.Fatal("open-loop DelayStage never lost; the property is vacuous on these draws")
	}
}
