package geo

import (
	"fmt"
	"math"

	"delaystage/internal/workload"
)

// Placement strategies. The paper positions DelayStage ("when to execute")
// as orthogonal to the placement line of work ("where to execute" —
// Iridium, Tetrium, Clarinet) and commits to combining them; these
// baselines make that combination concrete so the geo experiment can
// evaluate placement × delay jointly.

// GreedyWANPlacement places stages in topological order, each into the
// datacenter that minimizes its WAN input bytes given where its parents
// already sit (ties: lowest DC index) — the Iridium-style data-locality
// heuristic at stage granularity.
func GreedyWANPlacement(t *Topology, j *workload.Job) (Placement, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	topo, err := j.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	p := make(Placement, len(topo))
	nextRoot := 0
	for _, id := range topo {
		parents := j.Graph.Stage(id).Parents
		if len(parents) == 0 {
			// Spread roots round-robin: their input is DC-local storage.
			p[id] = nextRoot % len(t.DCs)
			nextRoot++
			continue
		}
		weights := j.AppendInputWeights(nil, id, nil)
		in := float64(j.Profiles[id].ShuffleIn)
		bestDC, bestCost := 0, math.Inf(1)
		for dc := 0; dc < len(t.DCs); dc++ {
			cost := 0.0
			for i, pid := range parents {
				if p[pid] != dc {
					cost += float64(weights[i] * in)
				}
			}
			if cost < bestCost {
				bestCost, bestDC = cost, dc
			}
		}
		p[id] = bestDC
	}
	return p, nil
}

// BottleneckAwarePlacement refines a placement by considering transfer
// *time* rather than bytes: each stage goes to the DC minimizing its
// worst-link transfer time (Eq. 1's max over links), which differs from
// byte-minimal placement on heterogeneous WANs. Parents are taken from
// the base placement; stages are revisited in topological order.
func BottleneckAwarePlacement(t *Topology, j *workload.Job, base Placement) (Placement, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	topo, err := j.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	p := make(Placement, len(topo))
	for id, dc := range base {
		p[id] = dc
	}
	for _, id := range topo {
		parents := j.Graph.Stage(id).Parents
		if len(parents) == 0 {
			continue // keep root placement: input is local storage
		}
		weights := j.AppendInputWeights(nil, id, nil)
		in := float64(j.Profiles[id].ShuffleIn)
		bestDC, bestTime := p[id], math.Inf(1)
		for dc := 0; dc < len(t.DCs); dc++ {
			worst := 0.0
			for i, pid := range parents {
				src := p[pid]
				bw := t.DCs[dc].NetBW
				if src != dc {
					bw = t.WAN[src][dc]
				}
				if tt := weights[i] * in / bw; tt > worst {
					worst = tt
				}
			}
			if worst < bestTime {
				bestTime, bestDC = worst, dc
			}
		}
		p[id] = bestDC
	}
	return p, nil
}

// PlacementNames labels the built-in strategies for experiment tables.
func PlacementNames() []string { return []string{"spread", "greedy-WAN", "bottleneck-aware"} }

// BuildPlacement constructs one of the named placements.
func BuildPlacement(name string, t *Topology, j *workload.Job) (Placement, error) {
	switch name {
	case "spread":
		return SpreadPlacement(j, len(t.DCs))
	case "greedy-WAN":
		return GreedyWANPlacement(t, j)
	case "bottleneck-aware":
		base, err := GreedyWANPlacement(t, j)
		if err != nil {
			return nil, err
		}
		return BottleneckAwarePlacement(t, j, base)
	}
	return nil, fmt.Errorf("geo: unknown placement %q", name)
}
