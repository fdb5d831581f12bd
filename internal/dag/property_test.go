package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDAG builds a random acyclic graph on n stages: each stage may only
// depend on lower-numbered stages, so acyclicity holds by construction.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		var par []StageID
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.25 {
				par = append(par, StageID(j))
			}
		}
		g.MustAdd(Stage{ID: StageID(i), Parents: par})
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

func TestPropertyTopoSortIsPermutation(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		topo, err := g.TopoSort()
		if err != nil {
			return false
		}
		seen := map[StageID]bool{}
		for _, id := range topo {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(topo) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTopoRespectsEdges(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		topo, _ := g.TopoSort()
		pos := map[StageID]int{}
		for i, id := range topo {
			pos[id] = i
		}
		for _, id := range g.Stages() {
			for _, p := range g.Parents(id) {
				if pos[p] >= pos[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Reachability must be consistent with a brute-force DFS.
func TestPropertyReachabilityMatchesDFS(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%25) + 2
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		r, err := NewReachability(g)
		if err != nil {
			return false
		}
		var dfs func(from, to StageID, seen map[StageID]bool) bool
		dfs = func(from, to StageID, seen map[StageID]bool) bool {
			if seen[from] {
				return false
			}
			seen[from] = true
			for _, c := range g.Children(from) {
				if c == to || dfs(c, to, seen) {
					return true
				}
			}
			return false
		}
		for _, a := range g.Stages() {
			for _, b := range g.Stages() {
				want := a != b && dfs(a, b, map[StageID]bool{})
				if r.Reaches(a, b) != want {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Concurrency must be symmetric and irreflexive.
func TestPropertyConcurrentSymmetric(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%30) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		r, _ := NewReachability(g)
		for _, a := range g.Stages() {
			if r.Concurrent(a, a) {
				return false
			}
			for _, b := range g.Stages() {
				if r.Concurrent(a, b) != r.Concurrent(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Every stage in the parallel set must appear in at least one execution
// path, every path must be a chain (each stage reaches the next), and every
// path stage must be in K.
func TestPropertyPathsCoverK(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%35) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		r, _ := NewReachability(g)
		k := ParallelStages(g, r)
		paths := ExecutionPaths(g, r, nil)
		inK := map[StageID]bool{}
		for _, id := range k {
			inK[id] = true
		}
		covered := map[StageID]bool{}
		for _, p := range paths {
			for i, s := range p.Stages {
				if !inK[s] {
					return false
				}
				covered[s] = true
				if i > 0 && !r.Reaches(p.Stages[i-1], s) {
					return false
				}
			}
		}
		for _, id := range k {
			if !covered[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The concurrency degree computed via bitsets must equal the brute-force
// pairwise count.
func TestPropertyConcurrencyDegree(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%25) + 1
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		r, _ := NewReachability(g)
		for _, a := range g.Stages() {
			cnt := 0
			for _, b := range g.Stages() {
				if r.Concurrent(a, b) {
					cnt++
				}
			}
			if r.ConcurrencyDegree(a) != cnt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// CriticalPath weight must be ≥ any root-to-leaf chain found by random walk.
func TestPropertyCriticalPathIsMax(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%25) + 2
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, n)
		w := map[StageID]float64{}
		for _, id := range g.Stages() {
			w[id] = 1 + rng.Float64()*10
		}
		wf := func(id StageID) float64 { return w[id] }
		_, best := CriticalPath(g, wf)
		// Random chains must never exceed the critical weight.
		for trial := 0; trial < 20; trial++ {
			roots := g.Roots()
			cur := roots[rng.Intn(len(roots))]
			total := wf(cur)
			for {
				cs := g.Children(cur)
				if len(cs) == 0 {
					break
				}
				cur = cs[rng.Intn(len(cs))]
				total += wf(cur)
			}
			if total > best+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// shuffledDAG builds a random acyclic graph whose stage IDs and insertion
// order are both unrelated to its topological order: stage k (in a hidden
// topological numbering) gets a random ID, may depend on any lower k, and
// is inserted at a random position — parents are often added after their
// children.
func shuffledDAG(rng *rand.Rand, n int) *Graph {
	ids := rng.Perm(3 * n)[:n]
	stages := make([]Stage, n)
	for k := range stages {
		var par []StageID
		for j := 0; j < k; j++ {
			if rng.Float64() < 0.25 {
				par = append(par, StageID(ids[j]))
			}
		}
		stages[k] = Stage{ID: StageID(ids[k]), Parents: par}
	}
	g := New()
	for _, k := range rng.Perm(n) {
		g.MustAdd(stages[k])
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// refTopoSort is Kahn's algorithm over stage IDs with a FIFO ready queue,
// newly ready stages entering in insertion order: the order TopoSort's
// contract fixes.
func refTopoSort(g *Graph) []StageID {
	pos := map[StageID]int{}
	indeg := map[StageID]int{}
	var ready []StageID
	for i, id := range g.StagesView() {
		pos[id] = i
		indeg[id] = len(g.Stage(id).Parents)
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var out []StageID
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		var newly []StageID
		for _, c := range g.ChildrenView(id) {
			if indeg[c]--; indeg[c] == 0 {
				newly = append(newly, c)
			}
		}
		for i := 1; i < len(newly); i++ {
			for j := i; j > 0 && pos[newly[j]] < pos[newly[j-1]]; j-- {
				newly[j], newly[j-1] = newly[j-1], newly[j]
			}
		}
		ready = append(ready, newly...)
	}
	return out
}

// TestPropertyPositionIndex: Pos, ParentPos and ChildPos mirror the ID
// view exactly (insertion positions, Stage.Parents order, child-index
// order), and TopoSort — on the stored index of a validated graph and on
// the index an unvalidated clone derives — matches the reference order.
func TestPropertyPositionIndex(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 1
		g := shuffledDAG(rand.New(rand.NewSource(seed)), n)
		order := g.StagesView()
		for i, id := range order {
			if g.Pos(id) != i {
				return false
			}
			pp := g.ParentPos(i)
			if len(pp) != len(g.Stage(id).Parents) {
				return false
			}
			for j, p := range g.Stage(id).Parents {
				if order[pp[j]] != p {
					return false
				}
			}
			cp := g.ChildPos(i)
			if len(cp) != len(g.ChildrenView(id)) {
				return false
			}
			for j, c := range g.ChildrenView(id) {
				if order[cp[j]] != c {
					return false
				}
			}
		}
		if g.Pos(StageID(-1)) != -1 {
			return false
		}
		want := refTopoSort(g)
		for _, gr := range []*Graph{g, g.Clone()} {
			got, err := gr.TopoSort()
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
