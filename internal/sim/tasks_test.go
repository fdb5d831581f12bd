package sim

import (
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// uniformCluster builds n identical nodes with the given capacities.
func uniformCluster(n, executors int, netBW, diskBW float64) *cluster.Cluster {
	c := &cluster.Cluster{Nodes: make([]cluster.Node, n)}
	for i := range c.Nodes {
		c.Nodes[i] = cluster.Node{ID: i, Executors: executors, NetBW: netBW, DiskBW: diskBW}
	}
	return c
}

// A stage with one task per node can use only one executor per node: its
// compute takes ε× longer than an uncapped stage on ε-executor nodes.
func TestTaskCapSlowsCompute(t *testing.T) {
	c := uniformCluster(4, 4, cluster.MBps(100), cluster.MBps(80))
	mk := func(tasks int) *workload.Job {
		g := dag.New()
		g.MustAdd(dag.Stage{ID: 1})
		p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 10, ComputeSec: 100, WriteSec: 0})
		p.Tasks = tasks
		j := &workload.Job{Name: "tc", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p}}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		return j
	}
	full := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: mk(0)}})
	capped := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: mk(4)}}) // 1 task/node on 4-exec nodes
	fullTL, capTL := full.Timeline(0, 1), capped.Timeline(0, 1)
	fullCompute := fullTL.ComputeEnd - fullTL.ReadEnd
	capCompute := capTL.ComputeEnd - capTL.ReadEnd
	if capCompute < fullCompute*3.5 {
		t.Fatalf("1-task-per-node compute %.1f should be ~4× the uncapped %.1f", capCompute, fullCompute)
	}
}

// CPU utilization accounting must reflect the cap: a task-starved stage
// leaves executors idle even while computing.
func TestTaskCapLowersUtilization(t *testing.T) {
	c := uniformCluster(4, 4, cluster.MBps(100), cluster.MBps(80))
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 1, ComputeSec: 100, WriteSec: 0})
	p.Tasks = 4 // one per node, of 4 executors each
	j := &workload.Job{Name: "u", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p}}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Options{Cluster: c, TrackNode: 0}, []JobRun{{Job: j}})
	// During compute the node runs 1 of 4 executors: average CPU util well
	// under 0.5.
	if res.AvgCPUUtil > 0.5 {
		t.Fatalf("task-starved stage should leave executors idle: util %.2f", res.AvgCPUUtil)
	}
}

// Tasks ≥ executors behaves exactly like the uncapped default.
func TestTaskCapNoEffectWhenAmple(t *testing.T) {
	c := uniformCluster(4, 2, cluster.MBps(100), cluster.MBps(80))
	mk := func(tasks int) *workload.Job {
		g := dag.New()
		g.MustAdd(dag.Stage{ID: 1})
		p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 10, ComputeSec: 50, WriteSec: 5})
		p.Tasks = tasks
		j := &workload.Job{Name: "na", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p}}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		return j
	}
	a := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: mk(0)}})
	b := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: mk(800)}})
	approx(t, "ample tasks JCT", b.JCT(0), a.JCT(0), 0.5)
}
