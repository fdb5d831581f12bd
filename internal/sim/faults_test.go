package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
	"delaystage/internal/workload"
)

func faultTestJob(t *testing.T, c *cluster.Cluster) *workload.Job {
	t.Helper()
	job := workload.PaperWorkloads(c, 0.3)["CosineSimilarity"]
	if job == nil {
		t.Fatal("missing workload")
	}
	return job
}

// A simulation driven by a zero-fault plan must be bit-identical to one
// with no injector at all: the fault layer is pay-for-what-you-use.
func TestZeroFaultPlanBitIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	delays := map[dag.StageID]float64{2: 3.5}

	base, err := Run(Options{Cluster: c, TrackNode: 0, TrackCluster: true, TrackOccupancy: true},
		[]JobRun{{Job: job, Delays: delays}})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.FaultPlan{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	withInj, err := Run(Options{Cluster: c, TrackNode: 0, TrackCluster: true, TrackOccupancy: true, Faults: inj},
		[]JobRun{{Job: job, Delays: delays}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, withInj) {
		t.Fatalf("zero-fault injector changed the result:\nbase %+v\nwith %+v", base, withInj)
	}
}

// Task failures must cost time (work is lost and re-done after backoff),
// be counted, and still let the job complete.
func TestTaskFailuresRetryAndComplete(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := faults.NewInjector(faults.FaultPlan{Seed: 4, TaskFailureProb: 0.25})
	res, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed(0) != nil {
		t.Fatalf("job failed unexpectedly: %v", res.Failed(0))
	}
	if res.Retries == 0 {
		t.Fatal("25% failure rate produced zero retries")
	}
	if res.JCT(0) <= clean.JCT(0) {
		t.Fatalf("failures made the job faster: %.1f <= %.1f", res.JCT(0), clean.JCT(0))
	}
	sum := 0
	for _, tl := range res.Timelines {
		sum += tl.Retries
	}
	if sum != res.Retries {
		t.Fatalf("per-stage retries %d != total %d", sum, res.Retries)
	}
}

// With a certain-failure plan the retry budget runs out and the job must
// fail with a structured error, not a fabricated timeline; an unaffected
// co-running job keeps its result.
func TestRetryExhaustionFailsJob(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	job := faultTestJob(t, c)
	inj, _ := faults.NewInjector(faults.FaultPlan{Seed: 1, TaskFailureProb: 1})
	res, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 3},
		[]JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	ferr := res.Failed(0)
	if ferr == nil {
		t.Fatal("certain failure completed anyway")
	}
	var sfe *StageFailureError
	if !errors.As(ferr, &sfe) {
		t.Fatalf("want *StageFailureError, got %T: %v", ferr, ferr)
	}
	if sfe.Attempts != 3 {
		t.Fatalf("failed after %d attempts, want 3", sfe.Attempts)
	}
	if len(res.Timelines) != 0 {
		// CosineSimilarity's roots all compute; nothing can complete.
		t.Fatalf("failed job emitted %d timelines", len(res.Timelines))
	}
}

// A node crash mid-run kills in-flight work and forces lineage
// recomputation of completed-but-still-needed shuffle outputs; the run
// must complete, slower than the clean one.
func TestNodeCrashLineageRecovery(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	// Crash when roughly half the job is done: completed root outputs are
	// still needed by downstream consumers.
	at := clean.JCT(0) * 0.5
	inj, _ := faults.NewInjector(faults.FaultPlan{Seed: 2, Crashes: []faults.NodeCrash{{Node: 1, At: at}}})
	res, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed(0) != nil {
		t.Fatalf("crash run failed: %v", res.Failed(0))
	}
	if res.JCT(0) <= clean.JCT(0)+1e-9 {
		t.Fatalf("node crash was free: %.2f <= %.2f", res.JCT(0), clean.JCT(0))
	}
	// Crashing a node after the job finished changes nothing.
	lateInj, _ := faults.NewInjector(faults.FaultPlan{Seed: 2, Crashes: []faults.NodeCrash{{Node: 1, At: clean.JCT(0) + 100}}})
	late, err := Run(Options{Cluster: c, TrackNode: -1, Faults: lateInj}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(late.JCT(0)-clean.JCT(0)) > 1e-9 {
		t.Fatalf("post-completion crash changed JCT: %.3f vs %.3f", late.JCT(0), clean.JCT(0))
	}
	if late.Retries != 0 {
		t.Fatalf("post-completion crash produced %d retries", late.Retries)
	}
}

// Stragglers slow the whole stage (its compute tail waits for the slow
// partition) without any retries.
func TestStragglersSlowButClean(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := faults.NewInjector(faults.FaultPlan{Seed: 6, StragglerFrac: 0.3, StragglerFactor: 4})
	res, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Fatalf("stragglers are not failures, got %d retries", res.Retries)
	}
	if res.JCT(0) <= clean.JCT(0) {
		t.Fatalf("4× stragglers on 30%% of partitions were free: %.1f <= %.1f", res.JCT(0), clean.JCT(0))
	}
}

// Crash-node validation: a plan crashing a node the cluster doesn't have
// must be rejected up front.
func TestCrashNodeValidated(t *testing.T) {
	c := cluster.NewM4LargeCluster(3)
	job := faultTestJob(t, c)
	inj, _ := faults.NewInjector(faults.FaultPlan{Crashes: []faults.NodeCrash{{Node: 7, At: 1}}})
	if _, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj}, []JobRun{{Job: job}}); err == nil {
		t.Fatal("out-of-range crash node accepted")
	}
}

// cancelWatchdog trips the moment any stage completes — the simplest
// guarded policy — and counts the questions it gets after tripping.
type cancelWatchdog struct {
	fired      bool
	askedAfter int
}

func (w *cancelWatchdog) Trip(ev WatchEvent) bool {
	if w.fired {
		w.askedAfter++
	}
	w.fired = w.fired || ev.Kind == EvStageCompleted
	return w.fired
}

// A watchdog that cancels all delays after the first stage completion must
// bring the run back to (near) the undelayed timeline even when the
// configured delays are absurd.
func TestWatchdogCancelsDelays(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	clean, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	absurd := map[dag.StageID]float64{}
	for _, id := range job.Graph.Stages() {
		if len(job.Graph.Parents(id)) > 0 {
			absurd[id] = 500
		}
	}
	bad, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job, Delays: absurd}})
	if err != nil {
		t.Fatal(err)
	}
	if bad.JCT(0) < clean.JCT(0)+400 {
		t.Fatalf("absurd delays should hurt a lot: %.1f vs %.1f", bad.JCT(0), clean.JCT(0))
	}
	wd := &cancelWatchdog{}
	guarded, err := Run(Options{Cluster: c, TrackNode: -1, Watchdog: wd},
		[]JobRun{{Job: job, Delays: absurd}})
	if err != nil {
		t.Fatal(err)
	}
	if !wd.fired {
		t.Fatal("watchdog never saw a stage completion")
	}
	if wd.askedAfter != 0 {
		t.Fatalf("the engine asked a tripped job's watchdog %d more times", wd.askedAfter)
	}
	if guarded.JCT(0) > clean.JCT(0)*1.05 {
		t.Fatalf("guarded run %.1f not close to clean %.1f", guarded.JCT(0), clean.JCT(0))
	}
}

// Same fault plan ⇒ same result: the injector's hash-based draws make a
// faulty run as reproducible as a clean one.
func TestFaultyRunDeterministic(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := faultTestJob(t, c)
	plan := faults.FaultPlan{Seed: 11, TaskFailureProb: 0.2, StragglerFrac: 0.2, StragglerFactor: 2,
		Crashes: []faults.NodeCrash{{Node: 3, At: 15}}}
	var prev *Result
	for i := 0; i < 2; i++ {
		inj, err := faults.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Cluster: c, TrackNode: -1, Faults: inj}, []JobRun{{Job: job}})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatal("identical fault plans produced different results")
		}
		prev = res
	}
}
