// Package geo extends DelayStage to geo-distributed analytics — the
// future-work direction the paper commits to in Sec. 6 ("we plan to extend
// DelayStage to the geo-distributed setting and examine its effectiveness").
//
// The model follows the geo-analytics literature the paper cites (Iridium,
// Tetrium, Clarinet): a job's stages are *placed* in datacenters; a stage
// shuffle-reads from every parent's datacenter over WAN links that are far
// scarcer than intra-DC bandwidth, computes on its own DC's executors, and
// writes to its DC's storage. Eq. (1)'s "max over input links" — which the
// single-cluster simulator collapses into one NIC — is explicit here: a
// stage's read finishes when its slowest WAN flow does.
//
// The package holds the topology and the placements. The simulation is
// internal/sim's, with each DC a node of one cluster, each WAN link a link
// between two nodes and each stage placed on its DC (Run), and the delay
// search is internal/core's Alg. 1 on that layout (Plan), so schedules
// and comparisons carry over.
package geo

import (
	"fmt"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Topology is a set of datacenters connected by WAN links.
type Topology struct {
	// DCs holds each datacenter's aggregate capacity (a coarsened
	// cluster: total executors, intra-DC NIC and disk bandwidth).
	DCs []cluster.Node
	// WAN[i][j] is the bandwidth of the link from DC i to DC j in
	// bytes/s (i ≠ j). WAN[i][i] is ignored — local reads use the DC NIC.
	WAN [][]float64
}

// Validate checks the topology's shape and capacities: the DCs must form
// a valid cluster (distinct IDs, positive capacities) and every WAN link
// between two of them must be positive.
func (t *Topology) Validate() error {
	if err := (&cluster.Cluster{Nodes: t.DCs}).Validate(); err != nil {
		return fmt.Errorf("geo: %w", err)
	}
	n := len(t.DCs)
	if len(t.WAN) != n {
		return fmt.Errorf("geo: WAN matrix is %d×?, want %d×%d", len(t.WAN), n, n)
	}
	for i := range t.WAN {
		if len(t.WAN[i]) != n {
			return fmt.Errorf("geo: WAN row %d has %d entries, want %d", i, len(t.WAN[i]), n)
		}
		for j := range t.WAN[i] {
			if i != j && t.WAN[i][j] <= 0 {
				return fmt.Errorf("geo: WAN[%d][%d] must be positive", i, j)
			}
		}
	}
	return nil
}

// Placement assigns every stage to a datacenter index.
type Placement map[dag.StageID]int

// Job is a DAG job placed across datacenters.
type Job struct {
	Workload  *workload.Job
	Placement Placement
}

// Validate checks the topology and that every stage is placed in one of
// its DCs.
func (j *Job) Validate(t *Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if j.Workload == nil {
		return fmt.Errorf("geo: nil workload")
	}
	if err := j.Workload.Validate(); err != nil {
		return err
	}
	for _, id := range j.Workload.Graph.Stages() {
		dc, ok := j.Placement[id]
		if !ok {
			return fmt.Errorf("geo: stage %d has no placement", id)
		}
		if dc < 0 || dc >= len(t.DCs) {
			return fmt.Errorf("geo: stage %d placed in unknown DC %d", id, dc)
		}
	}
	return nil
}

// UniformWAN builds an n-DC topology with identical DCs and a uniform WAN
// bandwidth, the standard testbed shape in the geo-analytics literature.
func UniformWAN(nDC int, dc cluster.Node, wanBW float64) *Topology {
	t := &Topology{DCs: make([]cluster.Node, nDC), WAN: make([][]float64, nDC)}
	for i := 0; i < nDC; i++ {
		d := dc
		d.ID = i
		t.DCs[i] = d
		t.WAN[i] = make([]float64, nDC)
		for j := 0; j < nDC; j++ {
			if i != j {
				t.WAN[i][j] = wanBW
			}
		}
	}
	return t
}

// SpreadPlacement places stages round-robin over the DCs in topological
// order — a simple locality-oblivious placement baseline.
func SpreadPlacement(j *workload.Job, nDC int) (Placement, error) {
	topo, err := j.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	p := make(Placement, len(topo))
	for i, id := range topo {
		p[id] = i % nDC
	}
	return p, nil
}

// WANBytes returns the total bytes the job moves across WAN links under
// the placement — the metric Iridium/Clarinet minimize. Useful to sanity-
// check placements in tests and examples.
func WANBytes(t *Topology, j *Job) int64 {
	var total int64
	for _, id := range j.Workload.Graph.StagesView() {
		dst := j.Placement[id]
		in := float64(j.Workload.Profiles[id].ShuffleIn)
		w := j.Workload.AppendInputWeights(nil, id, nil)
		for i, p := range j.Workload.Graph.Stage(id).Parents {
			if j.Placement[p] != dst {
				total += int64(w[i] * in)
			}
		}
	}
	return total
}

// WANUtil is the mean utilization of the topology's WAN capacity over a
// run of the job that took jct seconds: every WAN byte crosses exactly
// one link, so it is WANBytes over the total WAN capacity times jct.
func WANUtil(t *Topology, j *Job, jct float64) float64 {
	total := 0.0
	for i := range t.WAN {
		for k, bw := range t.WAN[i] {
			if i != k {
				total += bw
			}
		}
	}
	if jct <= 0 || total <= 0 {
		return 0
	}
	return float64(WANBytes(t, j)) / (total * jct)
}

// Run simulates the placed job under the given delays (x_k seconds after
// a stage becomes ready) on internal/sim: the DCs form the cluster, the
// WAN matrix its links, and every stage runs on its DC. The job is run 0
// of the result, arriving at time 0.
func Run(t *Topology, job *Job, delays map[dag.StageID]float64) (*sim.Result, error) {
	if t == nil {
		return nil, fmt.Errorf("geo: nil topology")
	}
	if err := job.Validate(t); err != nil {
		return nil, err
	}
	return sim.Run(t.simOptions(), []sim.JobRun{{Job: job.Workload, Delays: delays, Placement: job.Placement}})
}

// Plan runs Alg. 1 (core.Compute) on the placed job: opt's Cluster,
// Links and Placement become the layout Run simulates — the DCs as the
// cluster's nodes, the WAN matrix as its links, each stage on its DC — so
// every candidate delay is priced by the simulation Run performs, and
// the schedule's Makespan is the job's Run JCT under its Delays.
func Plan(opt core.Options, t *Topology, job *Job) (*core.Schedule, error) {
	if t == nil {
		return nil, fmt.Errorf("geo: nil topology")
	}
	if err := job.Validate(t); err != nil {
		return nil, err
	}
	so := t.simOptions()
	opt.Cluster, opt.Links, opt.Placement = so.Cluster, so.Links, job.Placement
	return core.Compute(opt, job.Workload)
}

// simOptions lays the topology out for internal/sim: one node per DC, the
// WAN matrix as its links, no usage tracking.
func (t *Topology) simOptions() sim.Options {
	return sim.Options{Cluster: &cluster.Cluster{Nodes: t.DCs}, Links: t.WAN, TrackNode: -1}
}
