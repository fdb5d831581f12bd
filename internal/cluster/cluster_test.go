package cluster

import (
	"math/rand"
	"testing"
)

func TestValidateOK(t *testing.T) {
	c := NewM4LargeCluster(30)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(c.Nodes) != 30 {
		t.Fatalf("got %d nodes", len(c.Nodes))
	}
}

func TestValidateEmpty(t *testing.T) {
	c := &Cluster{}
	if err := c.Validate(); err == nil {
		t.Fatal("empty cluster must not validate")
	}
}

func TestValidateDuplicateID(t *testing.T) {
	c := &Cluster{Nodes: []Node{M4Large(1), M4Large(1)}}
	if err := c.Validate(); err == nil {
		t.Fatal("duplicate node IDs must not validate")
	}
}

func TestValidateBadCapacity(t *testing.T) {
	n := M4Large(0)
	n.Executors = 0
	if err := (&Cluster{Nodes: []Node{n}}).Validate(); err == nil {
		t.Fatal("zero executors must not validate")
	}
	n = M4Large(0)
	n.NetBW = 0
	if err := (&Cluster{Nodes: []Node{n}}).Validate(); err == nil {
		t.Fatal("zero net bandwidth must not validate")
	}
	n = M4Large(0)
	n.DiskBW = -1
	if err := (&Cluster{Nodes: []Node{n}}).Validate(); err == nil {
		t.Fatal("negative disk bandwidth must not validate")
	}
}

func TestTotals(t *testing.T) {
	n := Node{Executors: 2, NetBW: MBps(10), DiskBW: MBps(5)}
	c := &Cluster{Nodes: []Node{n, n, n, n}}
	if got := c.TotalExecutors(); got != 8 {
		t.Errorf("TotalExecutors = %d, want 8", got)
	}
	if got := c.TotalNetBW(); got != 4*MBps(10) {
		t.Errorf("TotalNetBW = %v", got)
	}
	if got := c.TotalDiskBW(); got != 4*MBps(5) {
		t.Errorf("TotalDiskBW = %v", got)
	}
}

func TestUnitConversions(t *testing.T) {
	if Mbps(8) != 1e6 {
		t.Errorf("Mbps(8) = %v, want 1e6 bytes/s", Mbps(8))
	}
	if MBps(1) != 1<<20 {
		t.Errorf("MBps(1) = %v, want 2^20", MBps(1))
	}
}

func TestM4LargeSpec(t *testing.T) {
	n := M4Large(7)
	if n.ID != 7 || n.Executors != 2 {
		t.Fatalf("unexpected m4.large spec: %+v", n)
	}
	// Paper's measured range is 100–480 Mbit/s.
	if n.NetBW < Mbps(100) || n.NetBW > Mbps(480) {
		t.Fatalf("m4.large NetBW %v outside the paper's measured range", n.NetBW)
	}
}

func TestNewTraceClusterHeterogeneity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewTraceCluster(100, 4, rng)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	min, max := c.Nodes[0].NetBW, c.Nodes[0].NetBW
	for _, n := range c.Nodes {
		if n.NetBW < min {
			min = n.NetBW
		}
		if n.NetBW > max {
			max = n.NetBW
		}
		if n.NetBW < Mbps(100) || n.NetBW > Mbps(2000) {
			t.Fatalf("node bw %v outside paper range [100Mbps, 2Gbps]", n.NetBW)
		}
		if n.DiskBW != MBps(80) {
			t.Fatalf("disk bw %v, want static 80 MB/s", n.DiskBW)
		}
		if n.Executors != 4 {
			t.Fatalf("executors %d, want cores per machine", n.Executors)
		}
	}
	if max-min < Mbps(200) {
		t.Fatalf("expected heterogeneous bandwidths, spread only %v", max-min)
	}
}

func TestNewTraceClusterDeterministic(t *testing.T) {
	a := NewTraceCluster(10, 2, rand.New(rand.NewSource(42)))
	b := NewTraceCluster(10, 2, rand.New(rand.NewSource(42)))
	for i := range a.Nodes {
		if a.Nodes[i].NetBW != b.Nodes[i].NetBW {
			t.Fatal("same seed must give same cluster")
		}
	}
}
