package perfmodel

import (
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// predict is the Prediction under delays keyed by stage.
func predict(b *BoundEvaluator, delays map[dag.StageID]float64) float64 {
	return b.PredictAt(b.dense(delays))
}

func TestPredictMonotoneInDelay(t *testing.T) {
	// Delaying one of two independent stages by a huge amount moves the
	// predicted job end past the delay.
	c := cluster.NewM4LargeCluster(30)
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2})
	p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 10, ComputeSec: 10, WriteSec: 1})
	j := &workload.Job{Name: "m", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
	b := boundEval(t, c, j, BoundConfig{})
	base := predict(b, nil)
	big := predict(b, map[dag.StageID]float64{1: 1000})
	if big < base+900 {
		t.Fatalf("huge delay must dominate: base %.1f, delayed %.1f", base, big)
	}
}

func TestPredictSpansCoversAllStages(t *testing.T) {
	c := cluster.NewM4LargeCluster(30)
	j := workload.TriangleCount(c, 0.2)
	m, _ := New(c)
	spans := boundEval(t, c, j, BoundConfig{}).PredictSpans(nil)
	if len(spans) != j.Graph.Len() {
		t.Fatalf("%d spans for %d stages", len(spans), j.Graph.Len())
	}
	solo := m.SoloTimes(j)
	for id, sp := range spans {
		if v := sp.End - sp.Start; v < solo[id]-1e-6 {
			t.Errorf("stage %d predicted %.1f below its solo time %.1f", id, v, solo[id])
		}
	}
}
