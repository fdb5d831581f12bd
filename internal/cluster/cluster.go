// Package cluster describes the simulated compute cluster: worker nodes
// with CPU executors, NIC bandwidth and local-disk bandwidth. It mirrors
// the testbeds of the DelayStage paper: 30 Amazon EC2 m4.large instances
// for the prototype experiments and a 4,000-machine heterogeneous cluster
// for the Alibaba trace simulation.
package cluster

import (
	"fmt"
	"math/rand"
)

// Byte-size and bandwidth helpers. All sizes are bytes, all bandwidths
// bytes per second, all times seconds (float64) throughout the repo.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// Mbps converts megabits/s to bytes/s.
func Mbps(v float64) float64 { return v * 1e6 / 8 }

// MBps converts megabytes/s to bytes/s.
func MBps(v float64) float64 { return v * MB }

// Node is one worker machine.
type Node struct {
	ID        int
	Executors int     // CPU execution slots (ε_w in the paper)
	NetBW     float64 // NIC bandwidth B^{·,w}, bytes/s
	DiskBW    float64 // local disk bandwidth D^w, bytes/s
}

// Cluster is a set of worker nodes.
type Cluster struct {
	Nodes []Node
}

// Validate checks every node has positive capacity and a unique ID.
func (c *Cluster) Validate() error {
	seen := make(map[int]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
		if n.Executors <= 0 {
			return fmt.Errorf("cluster: node %d has %d executors", n.ID, n.Executors)
		}
		if n.NetBW <= 0 || n.DiskBW <= 0 {
			return fmt.Errorf("cluster: node %d has non-positive bandwidth", n.ID)
		}
	}
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	return nil
}

// TotalExecutors returns the number of executors across all nodes.
func (c *Cluster) TotalExecutors() int {
	t := 0
	for _, n := range c.Nodes {
		t += n.Executors
	}
	return t
}

// TotalNetBW returns aggregate NIC bandwidth (bytes/s).
func (c *Cluster) TotalNetBW() float64 {
	t := 0.0
	for _, n := range c.Nodes {
		t += n.NetBW
	}
	return t
}

// TotalDiskBW returns aggregate disk bandwidth (bytes/s).
func (c *Cluster) TotalDiskBW() float64 {
	t := 0.0
	for _, n := range c.Nodes {
		t += n.DiskBW
	}
	return t
}

// M4Large returns the per-node spec of the paper's prototype testbed: an
// EC2 m4.large instance with 2 vCPUs (two 1-vCPU executors), "moderate"
// network (the paper measured 100–480 Mbit/s; we take the midpoint) and a
// 32 GB gp2 SSD (~80 MB/s sustained, matching the D^w the paper uses in
// simulation).
func M4Large(id int) Node {
	return Node{ID: id, Executors: 2, NetBW: Mbps(290), DiskBW: MBps(80)}
}

// NewM4LargeCluster builds the paper's 30-instance prototype cluster (or
// any other size).
func NewM4LargeCluster(n int) *Cluster {
	c := &Cluster{Nodes: make([]Node, n)}
	for i := range c.Nodes {
		c.Nodes[i] = M4Large(i)
	}
	return c
}

// NewTraceCluster reproduces the simulation setup of Sec. 5.3: n machines,
// executor count = CPU cores per machine, network bandwidth heterogeneous
// in [100 Mbit/s, 2 Gbit/s], disk statically 80 MB/s. The rng makes the
// heterogeneity reproducible.
func NewTraceCluster(n, coresPerMachine int, rng *rand.Rand) *Cluster {
	c := &Cluster{Nodes: make([]Node, n)}
	for i := range c.Nodes {
		bw := Mbps(100 + float64(rng.Float64()*(2000-100)))
		c.Nodes[i] = Node{ID: i, Executors: coresPerMachine, NetBW: bw, DiskBW: MBps(80)}
	}
	return c
}
