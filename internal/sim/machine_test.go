package sim

import (
	"reflect"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
)

// Machine-level failure domains and their mitigations: persistent slow
// nodes, MTTF-driven and rack-correlated crashes, speculative execution
// and node blacklisting.

// Persistently slow machines drag the run out without producing a single
// retry — degradation is not failure.
func TestSlowNodesSlowButClean(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := faults.NewInjector(faults.FaultPlan{Seed: 21, SlowNodeFrac: 0.4, SlowNodeFactor: 3})
	res, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Fatalf("slow nodes are not failures, got %d retries", res.Retries)
	}
	if res.JCT(0) <= clean.JCT(0) {
		t.Fatalf("3× slow machines were free: %.1f <= %.1f", res.JCT(0), clean.JCT(0))
	}
}

// A rack outage is a correlated multi-node crash: the run recovers via
// retries and lineage recomputation and costs more than losing a single
// node of that rack.
func TestRackCrashRecovery(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	at := clean.JCT(0) * 0.5
	rackInj, _ := faults.NewInjector(faults.FaultPlan{
		Seed: 2, RackSize: 3, RackCrashes: []faults.RackCrash{{Rack: 0, At: at}},
	})
	rack, err := Run(Options{Cluster: c, TrackNode: -1, Faults: rackInj, MaxAttempts: 8},
		[]JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if rack.Failed(0) != nil {
		t.Fatalf("rack-crash run failed: %v", rack.Failed(0))
	}
	oneInj, _ := faults.NewInjector(faults.FaultPlan{
		Seed: 2, Crashes: []faults.NodeCrash{{Node: 0, At: at}},
	})
	one, err := Run(Options{Cluster: c, TrackNode: -1, Faults: oneInj, MaxAttempts: 8},
		[]JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	// Parallel recovery means the *wall-clock* cost of a rack loss can
	// match a single-node loss (retries and recomputes run on disjoint
	// nodes), but never beat it — and the lost work tracked via retries
	// must scale with the rack size.
	if rack.JCT(0) < one.JCT(0) {
		t.Fatalf("losing 3 nodes (%.2f) cheaper than losing 1 (%.2f)", rack.JCT(0), one.JCT(0))
	}
	if rack.JCT(0) <= clean.JCT(0) {
		t.Fatalf("rack outage was free: %.2f <= %.2f", rack.JCT(0), clean.JCT(0))
	}
	if rack.Retries <= one.Retries {
		t.Fatalf("rack crash re-queued %d attempts, single-node crash %d", rack.Retries, one.Retries)
	}
}

// MTTF-driven crashes are reproducible (hash-based draws) and actually
// hit the run.
func TestMTTFCrashesDeterministic(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.FaultPlan{Seed: 17, NodeMTTF: clean.JCT(0), MTTFHorizon: clean.JCT(0) * 4}
	var prev *Result
	for i := 0; i < 2; i++ {
		inj, err := faults.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 10},
			[]JobRun{{Job: job}})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatal("identical MTTF plans produced different results")
		}
		prev = res
	}
	if prev.Failed(0) == nil && prev.JCT(0) <= clean.JCT(0) {
		t.Fatalf("MTTF ≈ JCT crashed nothing: %.2f <= %.2f", prev.JCT(0), clean.JCT(0))
	}
}

// Speculative execution must claw back straggler damage: with heavy
// per-partition stragglers, enabling speculation launches clones, wins
// races, and lands between the clean and the unmitigated runtime.
func TestSpeculationMitigatesStragglers(t *testing.T) {
	c := cluster.NewM4LargeCluster(8)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.FaultPlan{Seed: 6, StragglerFrac: 0.2, StragglerFactor: 8}
	inj, _ := faults.NewInjector(plan)
	slow, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	inj2, _ := faults.NewInjector(plan)
	spec, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj2, Speculation: true},
		[]JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if spec.SpecLaunched == 0 || spec.SpecWins == 0 {
		t.Fatalf("8× stragglers triggered no speculation (launched %d, wins %d)",
			spec.SpecLaunched, spec.SpecWins)
	}
	if spec.JCT(0) >= slow.JCT(0) {
		t.Fatalf("speculation did not help: %.2f >= %.2f", spec.JCT(0), slow.JCT(0))
	}
	if spec.JCT(0) < clean.JCT(0) {
		t.Fatalf("speculation beat the fault-free run: %.2f < %.2f", spec.JCT(0), clean.JCT(0))
	}
	// Speculation with no faults stays bit-identical to the clean run on a
	// homogeneous cluster: no partition ever lags the median.
	specClean, err := Run(Options{Cluster: c, TrackNode: -1, Speculation: true}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if specClean.SpecLaunched != 0 {
		t.Fatalf("clean homogeneous run launched %d clones", specClean.SpecLaunched)
	}
	if specClean.Makespan != clean.Makespan {
		t.Fatalf("idle speculation changed the makespan: %v vs %v", specClean.Makespan, clean.Makespan)
	}
}

// Repeated crashes of one machine blacklist it; rerouted retries keep the
// run alive, and the event stream records the blacklisting.
func TestBlacklistAfterRepeatedCrashes(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	jct := clean.JCT(0)
	inj, _ := faults.NewInjector(faults.FaultPlan{Seed: 2, Crashes: []faults.NodeCrash{
		{Node: 1, At: jct * 0.2}, {Node: 1, At: jct * 0.4},
	}})
	rec := &recorder{}
	res, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 10,
		BlacklistAfter: 2, Observer: rec}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed(0) != nil {
		t.Fatalf("blacklisted run failed: %v", res.Failed(0))
	}
	if res.Blacklisted != 1 {
		t.Fatalf("Blacklisted = %d, want 1", res.Blacklisted)
	}
	found := false
	for _, ev := range rec.events {
		if ev.Kind == EvNodeBlacklisted {
			found = true
			if ev.Node != 1 {
				t.Fatalf("blacklisted node %d, want 1", ev.Node)
			}
		}
	}
	if !found {
		t.Fatal("no node_blacklisted event")
	}
}

// Machine faults plus both mitigations stay deterministic and fork-safe:
// a fork of a world paused mid-run must match the uninterrupted run bit
// for bit (this exercises cloning of rival links, fault counters and
// speculation state).
func TestMachineFaultSnapshotBitIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	mk := func() Options {
		inj, err := faults.NewInjector(faults.FaultPlan{
			Seed: 9, StragglerFrac: 0.25, StragglerFactor: 6,
			Crashes: []faults.NodeCrash{{Node: 2, At: 12}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 8,
			Speculation: true, BlacklistAfter: 3}
	}
	full, err := Run(mk(), []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		at := full.JCT(0) * frac
		res := forkOut(t, pausedAt(t, mk(), []JobRun{{Job: job}}, at), nil)
		if !reflect.DeepEqual(res, full) {
			t.Fatalf("fork at %.2f diverged from the uninterrupted run", at)
		}
	}
}
