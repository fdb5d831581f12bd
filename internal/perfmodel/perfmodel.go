// Package perfmodel implements the paper's analytical performance model
// (Sec. 3.1, Eq. 1–3): closed-form uncontended stage times (Model) and the
// per-phase layout of a job's execution paths under contention
// (BoundEvaluator). DelayStage uses it to seed Alg. 1 with the uncontended
// stage times t̂_k and to bound and approximate candidate makespans; the
// Appendix A.2 experiment compares its predictions against the fluid
// simulator.
package perfmodel

import (
	"fmt"
	"math"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// Model evaluates a stage's uncontended time, Eq. (1)–(2), on a concrete
// cluster.
type Model struct {
	Cluster *cluster.Cluster
}

// New constructs a model, validating the cluster.
func New(c *cluster.Cluster) (*Model, error) {
	if c == nil {
		return nil, fmt.Errorf("perfmodel: nil cluster")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Model{Cluster: c}, nil
}

// SoloTimes computes t̂_k for every stage of a job.
func (m *Model) SoloTimes(j *workload.Job) map[dag.StageID]float64 {
	out := make(map[dag.StageID]float64, len(j.Profiles))
	for id, p := range j.Profiles {
		out[id] = m.SoloStageTime(p)
	}
	return out
}

// SoloStageTime is the uncontended stage time t̂_k (Alg. 1, line 2): Eq. 2's
// slowest worker, each worker's partition time being Eq. 1's read, compute
// and write.
func (m *Model) SoloStageTime(p workload.StageProfile) float64 {
	r, c, w := m.PhaseBreakdown(p)
	return r + c + w
}

// PhaseBreakdown returns the solo read/compute/write components of a stage
// on the slowest worker (useful for Gantt rendering and the A.2 table).
// Stage input/output is split evenly across the cluster's nodes, matching
// the simulator and the paper's symmetric-partition assumption.
func (m *Model) PhaseBreakdown(p workload.StageProfile) (read, compute, write float64) {
	n := float64(len(m.Cluster.Nodes))
	in := float64(p.ShuffleIn) / n
	out := float64(p.ShuffleOut) / n
	worst := 0.0
	for _, w := range m.Cluster.Nodes {
		var r, c, wr float64
		if in > 0 {
			r = in / w.NetBW
			c = in / (float64(w.Executors) * p.ProcRate)
		}
		if out > 0 {
			wr = out / w.DiskBW
		}
		if r+c+wr > worst {
			worst, read, compute, write = r+c+wr, r, c, wr
		}
	}
	return read, compute, write
}

// PredictionError returns |model − actual| / actual, the metric of
// Appendix A.2. actual must be positive.
func PredictionError(model, actual float64) float64 {
	if actual <= 0 {
		return math.Inf(1)
	}
	return math.Abs(model-actual) / actual
}
