package perfmodel

import (
	"math"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/workload"
)

func model(t *testing.T, n int) *Model {
	t.Helper()
	m, err := New(cluster.NewM4LargeCluster(n))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil cluster must error")
	}
	if _, err := New(&cluster.Cluster{}); err == nil {
		t.Fatal("empty cluster must error")
	}
}

func TestSoloStageTimeMatchesPhaseSpec(t *testing.T) {
	m := model(t, 30)
	p := workload.FromPhases(m.Cluster, workload.PhaseSpec{ReadSec: 100, ComputeSec: 150, WriteSec: 20})
	got := m.SoloStageTime(p)
	if math.Abs(got-270) > 1 {
		t.Fatalf("solo time %v, want 270", got)
	}
	r, c, w := m.PhaseBreakdown(p)
	if math.Abs(r-100) > 0.5 || math.Abs(c-150) > 0.5 || math.Abs(w-20) > 0.5 {
		t.Fatalf("breakdown %v/%v/%v, want 100/150/20", r, c, w)
	}
}

func TestStageTimeSlowestWorkerDominates(t *testing.T) {
	// Heterogeneous cluster: one slow-NIC node sets the stage time (Eq. 2).
	c := &cluster.Cluster{Nodes: []cluster.Node{
		{ID: 0, Executors: 2, NetBW: cluster.MBps(100), DiskBW: cluster.MBps(80)},
		{ID: 1, Executors: 2, NetBW: cluster.MBps(10), DiskBW: cluster.MBps(80)},
	}}
	m, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.StageProfile{ShuffleIn: 2 * 100 * cluster.MB, ProcRate: cluster.MBps(1000)}
	got := m.SoloStageTime(p)
	// Per-node input = 100 MB; slow node reads at 10 MB/s → 10 s dominates.
	if math.Abs(got-10-0.1) > 0.2 {
		t.Fatalf("stage time %v, want ≈10.1 (slow worker)", got)
	}
}

func TestSoloTimesAllStages(t *testing.T) {
	m := model(t, 30)
	j := workload.LDA(m.Cluster, 1)
	times := m.SoloTimes(j)
	if len(times) != j.Graph.Len() {
		t.Fatalf("%d times for %d stages", len(times), j.Graph.Len())
	}
	for id, v := range times {
		if v <= 0 {
			t.Errorf("stage %d solo time %v", id, v)
		}
	}
}

func TestZeroIOStage(t *testing.T) {
	m := model(t, 5)
	p := workload.StageProfile{ShuffleIn: 0, ShuffleOut: 0, ProcRate: 1}
	if got := m.SoloStageTime(p); got != 0 {
		t.Fatalf("no-IO no-compute stage time %v, want 0", got)
	}
}

func TestPredictionError(t *testing.T) {
	if e := PredictionError(110, 100); math.Abs(e-0.1) > 1e-9 {
		t.Fatalf("error %v, want 0.1", e)
	}
	if e := PredictionError(90, 100); math.Abs(e-0.1) > 1e-9 {
		t.Fatalf("error %v, want 0.1", e)
	}
	if !math.IsInf(PredictionError(1, 0), 1) {
		t.Fatal("zero actual must be +Inf")
	}
}

// The closed-form model and the fluid simulator must agree for a solo
// stage — that is Appendix A.2's premise.
func TestModelMatchesSimulatorSolo(t *testing.T) {
	m := model(t, 30)
	j := workload.CosineSimilarity(m.Cluster, 1)
	for id, p := range j.Profiles {
		want := m.SoloStageTime(p)
		if want <= 0 {
			t.Fatalf("stage %d solo %v", id, want)
		}
	}
}

// profileOf builds a raw StageProfile for the link-form tests.
func profileOf(in, rate, out int64) workload.StageProfile {
	return workload.StageProfile{ShuffleIn: in, ProcRate: float64(rate), ShuffleOut: out}
}
