// Package workload defines DAG-style analytics jobs: the stage dependency
// graph plus, for every stage, the resource profile that drives the
// simulator and the DelayStage performance model — shuffle-input bytes
// (network), per-executor processing rate R_k (CPU), shuffle-output bytes
// (disk), and task-duration skew.
//
// It provides the five workloads the paper evaluates — ALS (the motivation
// example, Fig. 1/6), ConnectedComponents, CosineSimilarity, LDA and
// TriangleCount (Table 2) — and a random-job generator for the
// trace-driven experiments.
package workload

import (
	"fmt"
	"math/rand"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
)

// StageProfile captures a stage's resource demands, aggregated over the
// whole cluster. The simulator splits each quantity evenly across worker
// nodes (the paper's model does the same; Sec. 3.1).
type StageProfile struct {
	// ShuffleIn is the total bytes the stage shuffle-reads over the
	// network (s_k summed over sources and workers). For root stages this
	// is the job-input read, which in Spark also travels the network for
	// non-local HDFS blocks.
	ShuffleIn int64
	// ShuffleOut is the total bytes shuffle-written to local disks (d_k).
	ShuffleOut int64
	// ProcRate is the per-executor data processing rate R_k in bytes/s.
	ProcRate float64
	// Skew ∈ [0,1] is task-duration heterogeneity: the fraction of the
	// compute phase over which tasks finish (0 = all tasks end together,
	// 1 = completions spread over the whole phase). It controls how early
	// shuffle output becomes available to AggShuffle-style pipelining.
	Skew float64
	// Tasks is the stage's task count (used for executor-occupation
	// accounting, Fig. 13). Zero means "one wave": tasks = total executors.
	Tasks int
}

// Validate rejects profiles the simulator cannot run.
func (p StageProfile) Validate() error {
	if p.ShuffleIn < 0 || p.ShuffleOut < 0 {
		return fmt.Errorf("workload: negative shuffle size")
	}
	if p.ProcRate <= 0 {
		return fmt.Errorf("workload: non-positive processing rate")
	}
	if p.Skew < 0 || p.Skew > 1 {
		return fmt.Errorf("workload: skew %v outside [0,1]", p.Skew)
	}
	if p.Tasks < 0 {
		return fmt.Errorf("workload: negative task count")
	}
	return nil
}

// Job is a complete DAG job: graph + per-stage profiles.
type Job struct {
	Name     string
	Graph    *dag.Graph
	Profiles map[dag.StageID]StageProfile
}

// Validate checks graph/profile consistency.
func (j *Job) Validate() error {
	if j.Graph == nil {
		return fmt.Errorf("workload %s: nil graph", j.Name)
	}
	if err := j.Graph.Validate(); err != nil {
		return fmt.Errorf("workload %s: %w", j.Name, err)
	}
	for _, id := range j.Graph.StagesView() {
		p, ok := j.Profiles[id]
		if !ok {
			return fmt.Errorf("workload %s: stage %d has no profile", j.Name, id)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload %s stage %d: %w", j.Name, id, err)
		}
	}
	for id := range j.Profiles {
		if j.Graph.Stage(id) == nil {
			return fmt.Errorf("workload %s: profile for unknown stage %d", j.Name, id)
		}
	}
	return nil
}

// AppendInputWeights appends to dst, for each parent of stage id in
// parent order, the share of the stage's shuffle input that parent
// produced: proportional to the parents' ShuffleOut, or equal when every
// parent output is zero. A root appends nothing. A non-nil active mask
// (by stage position, as sim.JobRun.Active) gives the weights of the
// sub-job it induces: an inactive parent gets 0 and the active ones
// share the input as the sub-job's own weights would, bit for bit.
func (j *Job) AppendInputWeights(dst []float64, id dag.StageID, active []bool) []float64 {
	parents := j.Graph.Stage(id).Parents
	on := func(p dag.StageID) bool { return active == nil || active[j.Graph.Pos(p)] }
	tot, n := 0.0, 0
	for _, p := range parents {
		if on(p) {
			tot += float64(j.Profiles[p].ShuffleOut)
			n++
		}
	}
	for _, p := range parents {
		switch {
		case !on(p):
			dst = append(dst, 0)
		case tot > 0:
			dst = append(dst, float64(j.Profiles[p].ShuffleOut)/tot)
		default:
			dst = append(dst, 1/float64(n))
		}
	}
	return dst
}

// Clone returns a deep copy (useful when a scheduler mutates profiles).
func (j *Job) Clone() *Job {
	nj := &Job{Name: j.Name, Graph: j.Graph.Clone(), Profiles: make(map[dag.StageID]StageProfile, len(j.Profiles))}
	for id, p := range j.Profiles {
		nj.Profiles[id] = p
	}
	return nj
}

// Perturbed returns a clone of j whose profiled parameters carry
// measurement noise: ShuffleIn, ShuffleOut and ProcRate of each stage, in
// Graph.Stages() order, each scaled by a uniform factor in
// [1−noise, 1+noise] drawn from rng, then clamped to ShuffleIn ≥ 1,
// ShuffleOut ≥ 0 and ProcRate > 0. A zero noise returns the plain clone
// and draws nothing from rng, so callers sharing it see the same stream
// as without perturbation.
func (j *Job) Perturbed(rng *rand.Rand, noise float64) *Job {
	out := j.Clone()
	if noise == 0 {
		return out
	}
	// Each product is converted so that no GOARCH fuses it into the sum
	// after it; rand's Float64 ends in a product of its own.
	perturb := func(v float64) float64 {
		f := float64(float64(rng.Float64())*2) - 1 // U[−1, 1)
		return v * (1 + float64(f*noise))
	}
	for _, id := range out.Graph.Stages() {
		p := out.Profiles[id]
		p.ShuffleIn = max(int64(perturb(float64(p.ShuffleIn))), 1)
		p.ShuffleOut = max(int64(perturb(float64(p.ShuffleOut))), 0)
		if p.ProcRate = perturb(p.ProcRate); p.ProcRate <= 0 {
			p.ProcRate = 1
		}
		out.Profiles[id] = p
	}
	return out
}

// PhaseSpec describes one stage by its intended *uncontended* phase
// durations on a reference cluster: how long the shuffle read, the compute
// and the shuffle write each take when the stage runs alone. Workload
// builders use it so the simulated timelines match the paper's figures by
// construction; FromPhases converts to byte sizes and rates.
type PhaseSpec struct {
	ReadSec    float64
	ComputeSec float64
	WriteSec   float64
	Skew       float64
	Tasks      int
}

// FromPhases derives a StageProfile whose solo execution on ref has the
// given phase durations: the read saturates every NIC for ReadSec, the
// compute keeps every executor busy for ComputeSec, the write saturates
// every disk for WriteSec.
func FromPhases(ref *cluster.Cluster, ps PhaseSpec) StageProfile {
	n := float64(len(ref.Nodes))
	perNodeNet := ref.TotalNetBW() / n
	perNodeDisk := ref.TotalDiskBW() / n
	execPerNode := float64(ref.TotalExecutors()) / n

	in := int64(ps.ReadSec * perNodeNet * n)
	out := int64(ps.WriteSec * perNodeDisk * n)
	// Solo compute time per node = (in/n) / (execPerNode · R) = ComputeSec.
	rate := 1.0
	if ps.ComputeSec > 0 {
		rate = (float64(in) / n) / (execPerNode * ps.ComputeSec)
	} else {
		// Negligible compute: rate high enough to finish in well under a slot.
		rate = float64(in)/n + 1
	}
	if in == 0 {
		// Pure-compute stage: synthesize a nominal input so compute volume
		// is non-zero, but rate tuned to hit ComputeSec.
		in = int64(n) * cluster.MB
		if ps.ComputeSec > 0 {
			rate = (float64(in) / n) / (execPerNode * ps.ComputeSec)
		}
	}
	return StageProfile{ShuffleIn: in, ShuffleOut: out, ProcRate: rate, Skew: ps.Skew, Tasks: ps.Tasks}
}
