package scheduler

import (
	"fmt"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/faults"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

func TestGuardedNames(t *testing.T) {
	if got := (GuardedDelayStage{}).Name(); got != "GuardedDelayStage" {
		t.Errorf("Name = %q", got)
	}
	if got := (GuardedDelayStage{DelayStage{Order: core.Ascending}}).Name(); got != "GuardedDelayStage-ascending" {
		t.Errorf("ascending Name = %q", got)
	}
}

// On a fault-free cluster the guard never trips: guarded DelayStage and
// plain DelayStage produce the exact same run.
func TestGuardedFaultFreeMatchesDelayStage(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	for name, job := range workload.PaperWorkloads(c, 0.3) {
		plain, err := runJob(c, job, DelayStage{}, sim.Options{TrackNode: -1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		guarded, err := runJob(c, job, GuardedDelayStage{}, sim.Options{TrackNode: -1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plain.JCT(0) != guarded.JCT(0) {
			t.Errorf("%s: guarded JCT %.4f != plain %.4f", name, guarded.JCT(0), plain.JCT(0))
		}
	}
}

// Under task failures the guard must degrade toward submit-when-ready:
// the guarded run completes and stays close to stock Spark, which is the
// always-feasible floor the paper's never-worse argument rests on.
func TestGuardedDegradesUnderFailures(t *testing.T) {
	c := cluster.NewM4LargeCluster(8)
	job := workload.PaperWorkloads(c, 0.3)["LDA"]
	plan := faults.FaultPlan{Seed: 13, TaskFailureProb: 0.2, StragglerFrac: 0.25, StragglerFactor: 3}
	mk := func() *faults.Injector {
		in, err := faults.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	spark, err := runJob(c, job, Spark{}, sim.Options{TrackNode: -1, Faults: mk()})
	if err != nil {
		t.Fatal(err)
	}
	if spark.Failed(0) != nil {
		t.Fatalf("spark run failed: %v", spark.Failed(0))
	}
	g, err := runJob(c, job, GuardedDelayStage{}, sim.Options{TrackNode: -1, Faults: mk()})
	if err != nil {
		t.Fatal(err)
	}
	if g.Failed(0) != nil {
		t.Fatalf("guarded run failed: %v", g.Failed(0))
	}
	if g.JCT(0) > spark.JCT(0)*1.05 {
		t.Errorf("guarded JCT %.1f much worse than spark %.1f", g.JCT(0), spark.JCT(0))
	}
}

// Never-worse under machine faults: with speculation and blacklisting on,
// guarded DelayStage completes every machine-failure regime — MTTF-driven
// crashes, persistent slow nodes, a rack outage, crash-plus-straggler mix —
// and stays within 5% of stock Spark under the identical fault plan and
// mitigations, the always-feasible floor of the paper's never-worse
// argument. Regime cells share a single guard and run in parallel, so
// `go test -race` additionally checks that the guard holds no per-run
// state.
func TestGuardedNeverWorseUnderMachineFaults(t *testing.T) {
	c := cluster.NewM4LargeCluster(8)
	job := workload.PaperWorkloads(c, 0.3)["LDA"]
	clean, err := runJob(c, job, Spark{}, sim.Options{TrackNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	jct := clean.JCT(0)
	// Crash regimes strike early, while the plan's delayed suffix is still
	// unsubmitted — that is where the guard has leverage and the property
	// is about strategy, not luck. A crash landing after every delayed
	// stage has been submitted leaves nothing to revise; whether the lost
	// in-flight work then costs more under the delayed schedule than under
	// submit-when-ready is down to which instants the crashes hit, and a
	// late-crash cell would assert on that coin flip. The MTTF horizon is
	// capped well below the clean JCT for the same reason: an open-ended
	// horizon lets any slowdown compound (longer run → more crash draws
	// land → blacklisting shrinks the cluster → longer run).
	regimes := []faults.FaultPlan{
		{Seed: 3, NodeMTTF: jct, MTTFHorizon: jct * 0.2},
		{Seed: 5, SlowNodeFrac: 0.25, SlowNodeFactor: 4},
		{Seed: 8, RackSize: 2, RackCrashes: []faults.RackCrash{{Rack: 1, At: jct * 0.05}}},
		{Seed: 11, SlowNodeFrac: 0.2, SlowNodeFactor: 6,
			Crashes: []faults.NodeCrash{{Node: 1, At: jct * 0.05}}},
	}
	plan, err := (DelayStage{}).Plan(c, job)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := GuardedDelayStage{}.Guard(c, job, plan)
	if err != nil {
		t.Fatal(err)
	}
	if guard == nil {
		t.Fatal("plan delays nothing to guard")
	}
	for i, fp := range regimes {
		fp, plan, guard := fp, plan, guard
		t.Run(fmt.Sprintf("regime%d", i), func(t *testing.T) {
			t.Parallel()
			mk := func() *faults.Injector {
				in, err := faults.NewInjector(fp)
				if err != nil {
					t.Fatal(err)
				}
				return in
			}
			base := sim.Options{Cluster: c, TrackNode: -1, MaxAttempts: 10,
				Speculation: true, BlacklistAfter: 2}
			sparkOpt := base
			sparkOpt.Faults = mk()
			spark, err := sim.Run(sparkOpt, []sim.JobRun{{Job: job}})
			if err != nil {
				t.Fatal(err)
			}
			if spark.Failed(0) != nil {
				t.Fatalf("spark run failed: %v", spark.Failed(0))
			}
			guardOpt := base
			guardOpt.Faults = mk()
			guardOpt.Watchdog = guard
			guarded, err := sim.Run(guardOpt, []sim.JobRun{{Job: job, Delays: plan.Delays}})
			if err != nil {
				t.Fatal(err)
			}
			if guarded.Failed(0) != nil {
				t.Fatalf("guarded run failed: %v", guarded.Failed(0))
			}
			if guarded.JCT(0) > spark.JCT(0)*1.05 {
				t.Errorf("guarded JCT %.1f worse than spark %.1f",
					guarded.JCT(0), spark.JCT(0))
			}
		})
	}
}
