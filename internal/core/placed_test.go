package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// placedCase is one placed planning input: a job, the DC-sized cluster
// its stages are placed on, the links between the DCs and the placement.
type placedCase struct {
	name      string
	job       *workload.Job
	c         *cluster.Cluster
	links     [][]float64
	placement map[dag.StageID]int
}

// placedCases spreads the gallery jobs and TriangleCount over three
// datacenters — round-robin in position order, at random, and with every
// stage but the roots in DC 0 — joined by uniform links of three
// bandwidths.
func placedCases() []placedCase {
	dc := cluster.Node{Executors: 32, NetBW: cluster.MBps(10000), DiskBW: cluster.MBps(2000)}
	c := &cluster.Cluster{Nodes: []cluster.Node{dc, dc, dc}}
	for i := range c.Nodes {
		c.Nodes[i].ID = i
	}
	ref := &cluster.Cluster{Nodes: []cluster.Node{dc}}
	named := workload.Gallery(ref, 0.2)
	named["TriangleCount"] = workload.TriangleCount(ref, 0.2)
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(3))
	var out []placedCase
	for _, n := range names {
		job := named[n]
		ids := job.Graph.StagesView()
		spread, random, hub := map[dag.StageID]int{}, map[dag.StageID]int{}, map[dag.StageID]int{}
		for p, id := range ids {
			spread[id] = p % 3
			random[id] = rng.Intn(3)
			if hub[id] = 0; len(job.Graph.ParentPos(p)) == 0 {
				hub[id] = p % 3
			}
		}
		for _, wan := range []float64{2000, 400, 150} {
			bw := cluster.MBps(wan)
			links := [][]float64{{0, bw, bw}, {bw, 0, bw}, {bw, bw, 0}}
			for _, pl := range []struct {
				name string
				p    map[dag.StageID]int
			}{{"spread", spread}, {"random", random}, {"hub", hub}} {
				out = append(out, placedCase{name: fmt.Sprintf("%s/%s/%.0fMBps", n, pl.name, wan),
					job: job, c: c, links: links, placement: pl.p})
			}
		}
	}
	return out
}

// TestPlacedPlanIdentity: a placed job's scan answers candidates from
// forks and its plan never predicts worse than stock; and the evaluator's
// answers on a placed job are those of fresh placed simulations over the
// links, bit for bit.
func TestPlacedPlanIdentity(t *testing.T) {
	cases := placedCases()
	for _, pc := range cases {
		base := Options{Cluster: pc.c, Links: pc.links, Placement: pc.placement, MaxCandidates: 16}
		ref := computeOK(t, base, pc.job)
		if ref.Makespan > ref.StockMakespan {
			t.Errorf("%s: makespan %v above stock %v", pc.name, ref.Makespan, ref.StockMakespan)
		}
		if len(ref.K) > 0 && ref.ForkedEvals == 0 {
			t.Errorf("%s: no candidate was answered from a fork", pc.name)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for _, pc := range cases[:3] {
		n := pc.job.Graph.Len()
		half := make([]bool, n)
		for p := range half {
			half[p] = p%2 == 0
		}
		checkAnswersMatchFreshSim(t, whatIfCase{name: pc.name, job: pc.job,
			opt:    Options{Cluster: pc.c, Links: pc.links, Placement: pc.placement},
			simOpt: sim.Options{Cluster: pc.c, Links: pc.links, TrackNode: -1},
		}, [][]bool{nil, half}, rng)
	}
}

// TestPlacedPlanRefusals: the analytic model knows no links, so a placed
// job cannot be planned approximately; and links without a placement
// are refused.
func TestPlacedPlanRefusals(t *testing.T) {
	pc := placedCases()[0]
	opt := Options{Cluster: pc.c, Links: pc.links, Placement: pc.placement, Approximate: true}
	if _, err := Compute(opt, pc.job); err == nil || !strings.Contains(err.Error(), "Approximate") {
		t.Fatalf("approximate placed Compute = %v, want a refusal", err)
	}
	opt.Approximate, opt.Placement = false, nil
	if _, err := Compute(opt, pc.job); err == nil || !strings.Contains(err.Error(), "Placement") {
		t.Fatalf("Compute with links and no placement = %v, want a refusal", err)
	}
}
