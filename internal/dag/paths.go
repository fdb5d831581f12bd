package dag

import "sort"

// ParallelStages returns the parallel-stage set K of the paper (Sec. 2.1):
// every stage that can execute in parallel with at least one other stage in
// the DAG, i.e. whose concurrency degree is ≥ 1. The result is in
// topological order.
func ParallelStages(g *Graph, r *Reachability) []StageID {
	topo, err := g.TopoSort()
	if err != nil {
		return nil
	}
	var out []StageID
	for _, id := range topo {
		if r.ConcurrencyDegree(id) >= 1 {
			out = append(out, id)
		}
	}
	return out
}

// Path is one execution path P_m: a chain of stages executed sequentially
// (each a DAG-ancestor of the next).
type Path struct {
	Stages []StageID
}

// ExecutionPaths decomposes the parallel-stage set K into execution paths
// exactly as Fig. 7 of the paper illustrates: one path per *source* stage
// of the subgraph induced by K (a source has no parent inside K), extended
// greedily through the child with the largest remaining weight. weight
// gives each stage's estimated solo execution time t̂_k; pass nil to weight
// every stage equally.
//
// For Fig. 7 (edges 1→3, 2→3; 4 isolated; 5 after all) this yields
// P1={1,3}, P2={2,3}, P3={4} — stage 3 appears in two paths, as in the
// paper, and Alg. 1's "skip already-scheduled stages" handles the repeat.
func ExecutionPaths(g *Graph, r *Reachability, weight func(StageID) float64) []Path {
	k := ParallelStages(g, r)
	if len(k) == 0 {
		return nil
	}
	inK := make(map[StageID]bool, len(k))
	for _, id := range k {
		inK[id] = true
	}
	w := weight
	if w == nil {
		w = func(StageID) float64 { return 1 }
	}
	// down[s] = total weight of the heaviest chain starting at s inside K.
	topo, _ := g.TopoSort()
	down := make(map[StageID]float64, len(k))
	next := make(map[StageID]StageID, len(k))
	for i := len(topo) - 1; i >= 0; i-- {
		s := topo[i]
		if !inK[s] {
			continue
		}
		best, bestID, has := 0.0, StageID(0), false
		for _, c := range g.ChildrenView(s) {
			if inK[c] && (!has || down[c] > best) {
				best, bestID, has = down[c], c, true
			}
		}
		down[s] = w(s)
		if has {
			down[s] += best
			next[s] = bestID
		}
	}
	covered := make(map[StageID]bool, len(k))
	emit := func(s StageID) Path {
		var chainIDs []StageID
		cur, ok := s, true
		for ok {
			chainIDs = append(chainIDs, cur)
			covered[cur] = true
			cur, ok = next[cur]
		}
		return Path{Stages: chainIDs}
	}
	var paths []Path
	for _, s := range k { // topological order ⇒ sources come first per branch
		isSource := true
		for _, p := range g.stages[s].Parents {
			if inK[p] {
				isSource = false
				break
			}
		}
		if !isSource {
			continue
		}
		paths = append(paths, emit(s))
	}
	// Coverage pass: heaviest-chain selection can skip siblings (a diamond
	// inside K leaves one branch uncovered). Every stage in K must appear in
	// some path or Alg. 1 would never schedule it.
	for _, s := range k { // topological order keeps added paths chain-maximal
		if !covered[s] {
			paths = append(paths, emit(s))
		}
	}
	return paths
}

// PathWeight returns the total weight of a path under the given weight
// function (nil counts stages).
func PathWeight(p Path, weight func(StageID) float64) float64 {
	if weight == nil {
		return float64(len(p.Stages))
	}
	t := 0.0
	for _, s := range p.Stages {
		t += weight(s)
	}
	return t
}

// SortPathsDescending orders paths by decreasing weight (the DelayStage
// default), breaking ties by first stage ID for determinism.
func SortPathsDescending(paths []Path, weight func(StageID) float64) {
	sort.SliceStable(paths, func(i, j int) bool {
		wi, wj := PathWeight(paths[i], weight), PathWeight(paths[j], weight)
		if wi != wj {
			return wi > wj
		}
		return paths[i].Stages[0] < paths[j].Stages[0]
	})
}

// SortPathsAscending orders paths by increasing weight (the "ascending
// DelayStage" variant of Sec. 5.3).
func SortPathsAscending(paths []Path, weight func(StageID) float64) {
	sort.SliceStable(paths, func(i, j int) bool {
		wi, wj := PathWeight(paths[i], weight), PathWeight(paths[j], weight)
		if wi != wj {
			return wi < wj
		}
		return paths[i].Stages[0] < paths[j].Stages[0]
	})
}

// CriticalPath returns the heaviest root-to-leaf chain of the *whole* DAG
// and its total weight — the lower bound on job completion time when every
// stage runs uncontended.
func CriticalPath(g *Graph, weight func(StageID) float64) (Path, float64) {
	w := weight
	if w == nil {
		w = func(StageID) float64 { return 1 }
	}
	topo, err := g.TopoSort()
	if err != nil {
		return Path{}, 0
	}
	down := make(map[StageID]float64, len(topo))
	next := make(map[StageID]StageID, len(topo))
	for i := len(topo) - 1; i >= 0; i-- {
		s := topo[i]
		best, bestID, has := 0.0, StageID(0), false
		for _, c := range g.ChildrenView(s) {
			if !has || down[c] > best {
				best, bestID, has = down[c], c, true
			}
		}
		down[s] = w(s)
		if has {
			down[s] += best
			next[s] = bestID
		}
	}
	bestStart, bestW, has := StageID(0), 0.0, false
	for _, s := range g.Roots() {
		if !has || down[s] > bestW {
			bestStart, bestW, has = s, down[s], true
		}
	}
	if !has {
		return Path{}, 0
	}
	var chain []StageID
	cur, ok := bestStart, true
	for ok {
		chain = append(chain, cur)
		cur, ok = next[cur]
	}
	return Path{Stages: chain}, bestW
}
