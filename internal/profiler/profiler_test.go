package profiler

import (
	"math"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/workload"
)

func TestProfileJobValidation(t *testing.T) {
	if _, err := ProfileJob(nil, Options{}); err == nil {
		t.Fatal("nil job must error")
	}
}

func TestProfileJobEstimatesCloseToTruth(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	j := workload.LDA(c, 0.2)
	p, err := ProfileJob(j, Options{Noise: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range j.Graph.Stages() {
		truth, est := j.Profiles[id], p.Estimated.Profiles[id]
		relIn := math.Abs(float64(est.ShuffleIn)-float64(truth.ShuffleIn)) / float64(truth.ShuffleIn)
		relRate := math.Abs(est.ProcRate-truth.ProcRate) / truth.ProcRate
		if relIn > 0.05+1e-9 || relRate > 0.05+1e-9 {
			t.Errorf("stage %d: estimate error in=%.3f rate=%.3f beyond noise bound", id, relIn, relRate)
		}
		if relIn == 0 && relRate == 0 {
			t.Errorf("stage %d: estimates identical to truth; noise not applied", id)
		}
	}
}

func TestProfilingTimePositiveAndScalesWithSample(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	j := workload.CosineSimilarity(c, 0.2)
	small, err := ProfileJob(j, Options{SampleFraction: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := ProfileJob(j, Options{SampleFraction: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.ProfilingTime <= 0 {
		t.Fatal("profiling time must be positive")
	}
	if big.ProfilingTime <= small.ProfilingTime {
		t.Fatalf("larger sample must take longer: %.1f vs %.1f", big.ProfilingTime, small.ProfilingTime)
	}
}

func TestProfilingDeterministicPerSeed(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	j := workload.LDA(c, 0.1)
	a, _ := ProfileJob(j, Options{Seed: 42})
	b, _ := ProfileJob(j, Options{Seed: 42})
	for _, id := range j.Graph.Stages() {
		if a.Estimated.Profiles[id] != b.Estimated.Profiles[id] {
			t.Fatal("same seed must give same estimates")
		}
	}
}

// End-to-end: schedules computed from noisy profiles must still help.
func TestScheduleFromProfiledParameters(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	truth := workload.CosineSimilarity(c, 0.2)
	prof, err := ProfileJob(truth, Options{Noise: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Compute(core.Options{Cluster: c}, prof.Estimated)
	if err != nil {
		t.Fatal(err)
	}
	// Delays derived from estimates, applied to the true job.
	if sched.Makespan > sched.StockMakespan {
		t.Fatal("profiled schedule regressed its own prediction")
	}
}

func TestDoesNotMutateInput(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	j := workload.LDA(c, 0.1)
	before := j.Profiles[1]
	if _, err := ProfileJob(j, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if j.Profiles[1] != before {
		t.Fatal("ProfileJob mutated the input job")
	}
}
