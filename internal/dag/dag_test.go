package dag

import (
	"errors"
	"testing"
)

// chain builds 0→1→…→n-1 (each depends on the previous).
func chain(t *testing.T, n int) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < n; i++ {
		var par []StageID
		if i > 0 {
			par = []StageID{StageID(i - 1)}
		}
		g.MustAdd(Stage{ID: StageID(i), Parents: par})
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

// fig7 builds the paper's Fig. 7 DAG: 1→3, 2→3, 4 independent, 5 after 3&4.
func fig7(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.MustAdd(Stage{ID: 1, Name: "s1"})
	g.MustAdd(Stage{ID: 2, Name: "s2"})
	g.MustAdd(Stage{ID: 3, Name: "s3", Parents: []StageID{1, 2}})
	g.MustAdd(Stage{ID: 4, Name: "s4"})
	g.MustAdd(Stage{ID: 5, Name: "s5", Parents: []StageID{3, 4}})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func reach(t *testing.T, g *Graph) *Reachability {
	t.Helper()
	r, err := NewReachability(g)
	if err != nil {
		t.Fatalf("NewReachability: %v", err)
	}
	return r
}

func TestAddStageDuplicate(t *testing.T) {
	g := New()
	g.MustAdd(Stage{ID: 1})
	if err := g.AddStage(Stage{ID: 1}); !errors.Is(err, ErrDuplicateStage) {
		t.Fatalf("want ErrDuplicateStage, got %v", err)
	}
}

func TestValidateUnknownParent(t *testing.T) {
	g := New()
	g.MustAdd(Stage{ID: 1, Parents: []StageID{99}})
	if err := g.Validate(); !errors.Is(err, ErrUnknownStage) {
		t.Fatalf("want ErrUnknownStage, got %v", err)
	}
}

func TestValidateCycle(t *testing.T) {
	g := New()
	g.MustAdd(Stage{ID: 1, Parents: []StageID{2}})
	g.MustAdd(Stage{ID: 2, Parents: []StageID{1}})
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestValidateSelfCycle(t *testing.T) {
	g := New()
	g.MustAdd(Stage{ID: 1, Parents: []StageID{1}})
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestTopoSortRespectsDependencies(t *testing.T) {
	g := fig7(t)
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[StageID]int{}
	for i, id := range topo {
		pos[id] = i
	}
	for _, id := range g.Stages() {
		for _, p := range g.Parents(id) {
			if pos[p] >= pos[id] {
				t.Errorf("parent %d at %d not before child %d at %d", p, pos[p], id, pos[id])
			}
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := fig7(t)
	a, _ := g.TopoSort()
	b, _ := g.TopoSort()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic topo sort: %v vs %v", a, b)
		}
	}
}

// leaves returns the stages with no children, in insertion order.
func leaves(g *Graph) []StageID {
	var out []StageID
	for _, id := range g.StagesView() {
		if len(g.ChildrenView(id)) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// concurrent reports whether a and b may execute in parallel: a != b and
// neither reaches the other.
func concurrent(r *Reachability, a, b StageID) bool {
	return a != b && !r.Reaches(a, b) && !r.Reaches(b, a)
}

// members returns the stages in id's row of sets (r.anc or r.desc), in
// topological order.
func members(r *Reachability, sets []bitset, id StageID) []StageID {
	var out []StageID
	for j := range r.ids {
		if sets[r.idx[id]].get(j) {
			out = append(out, r.ids[j])
		}
	}
	return out
}

func TestRootsLeaves(t *testing.T) {
	g := fig7(t)
	roots := g.Roots()
	if len(roots) != 3 {
		t.Fatalf("want 3 roots (1,2,4), got %v", roots)
	}
	leaves := leaves(g)
	if len(leaves) != 1 || leaves[0] != 5 {
		t.Fatalf("want leaf [5], got %v", leaves)
	}
}

func TestChildrenIndex(t *testing.T) {
	g := fig7(t)
	cs := g.ChildrenView(1)
	if len(cs) != 1 || cs[0] != 3 {
		t.Fatalf("children(1) = %v, want [3]", cs)
	}
	if got := g.ChildrenView(5); len(got) != 0 {
		t.Fatalf("children(5) = %v, want empty", got)
	}
}

func TestReachability(t *testing.T) {
	g := fig7(t)
	r := reach(t, g)
	cases := []struct {
		a, b StageID
		want bool
	}{
		{1, 3, true}, {2, 3, true}, {1, 5, true}, {4, 5, true},
		{3, 1, false}, {1, 2, false}, {1, 4, false}, {3, 4, false},
	}
	for _, c := range cases {
		if got := r.Reaches(c.a, c.b); got != c.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestConcurrent(t *testing.T) {
	g := fig7(t)
	r := reach(t, g)
	if !concurrent(r, 1, 2) || !concurrent(r, 3, 4) || !concurrent(r, 1, 4) {
		t.Error("expected 1∥2, 3∥4, 1∥4")
	}
	if concurrent(r, 1, 3) || concurrent(r, 5, 1) || concurrent(r, 2, 2) {
		t.Error("1-3, 5-1, 2-2 must not be concurrent")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g := fig7(t)
	r := reach(t, g)
	anc := members(r, r.anc, 5)
	if len(anc) != 4 {
		t.Fatalf("ancestors(5) = %v, want 4 stages", anc)
	}
	desc := members(r, r.desc, 1)
	if len(desc) != 2 { // 3 and 5
		t.Fatalf("descendants(1) = %v, want [3 5]", desc)
	}
}

func TestConcurrencyDegree(t *testing.T) {
	g := fig7(t)
	r := reach(t, g)
	// Stage 5 is ordered after everything: degree 0.
	if d := r.ConcurrencyDegree(5); d != 0 {
		t.Errorf("degree(5) = %d, want 0", d)
	}
	// Stage 4 is concurrent with 1, 2, 3.
	if d := r.ConcurrencyDegree(4); d != 3 {
		t.Errorf("degree(4) = %d, want 3", d)
	}
	// Stage 1 is concurrent with 2 and 4.
	if d := r.ConcurrencyDegree(1); d != 2 {
		t.Errorf("degree(1) = %d, want 2", d)
	}
}

func TestParallelStagesFig7(t *testing.T) {
	g := fig7(t)
	r := reach(t, g)
	k := ParallelStages(g, r)
	want := map[StageID]bool{1: true, 2: true, 3: true, 4: true}
	if len(k) != 4 {
		t.Fatalf("K = %v, want {1,2,3,4}", k)
	}
	for _, id := range k {
		if !want[id] {
			t.Errorf("unexpected stage %d in K", id)
		}
	}
}

func TestParallelStagesChainEmpty(t *testing.T) {
	g := chain(t, 5)
	r := reach(t, g)
	if k := ParallelStages(g, r); len(k) != 0 {
		t.Fatalf("chain has no parallel stages, got %v", k)
	}
}

// TestExecutionPathsFig7 checks the decomposition matches the paper exactly:
// P1={1,3}, P2={2,3}, P3={4} under the paper's weights t1=20,t2=10,t3=30,t4=20.
func TestExecutionPathsFig7(t *testing.T) {
	g := fig7(t)
	r := reach(t, g)
	w := map[StageID]float64{1: 20, 2: 10, 3: 30, 4: 20, 5: 10}
	wf := func(id StageID) float64 { return w[id] }
	paths := ExecutionPaths(g, r, wf)
	if len(paths) != 3 {
		t.Fatalf("got %d paths %v, want 3", len(paths), paths)
	}
	SortPathsDescending(paths, wf)
	// Descending: {1,3}=50, {2,3}=40, {4}=20.
	wantPaths := [][]StageID{{1, 3}, {2, 3}, {4}}
	for i, wp := range wantPaths {
		got := paths[i].Stages
		if len(got) != len(wp) {
			t.Fatalf("path %d = %v, want %v", i, got, wp)
		}
		for j := range wp {
			if got[j] != wp[j] {
				t.Fatalf("path %d = %v, want %v", i, got, wp)
			}
		}
	}
}

func TestSortPathsAscending(t *testing.T) {
	g := fig7(t)
	r := reach(t, g)
	w := map[StageID]float64{1: 20, 2: 10, 3: 30, 4: 20, 5: 10}
	wf := func(id StageID) float64 { return w[id] }
	paths := ExecutionPaths(g, r, wf)
	SortPathsAscending(paths, wf)
	if PathWeight(paths[0], wf) > PathWeight(paths[len(paths)-1], wf) {
		t.Fatal("ascending sort produced descending order")
	}
	if paths[0].Stages[0] != 4 {
		t.Fatalf("lightest path should be {4}, got %v", paths[0].Stages)
	}
}

func TestCriticalPathFig7(t *testing.T) {
	g := fig7(t)
	w := map[StageID]float64{1: 20, 2: 10, 3: 30, 4: 20, 5: 10}
	p, total := CriticalPath(g, func(id StageID) float64 { return w[id] })
	if total != 60 { // 1(20) → 3(30) → 5(10)
		t.Fatalf("critical path weight = %v, want 60 (%v)", total, p.Stages)
	}
	if len(p.Stages) != 3 || p.Stages[0] != 1 || p.Stages[2] != 5 {
		t.Fatalf("critical path = %v, want [1 3 5]", p.Stages)
	}
}

func TestCriticalPathChain(t *testing.T) {
	g := chain(t, 4)
	p, total := CriticalPath(g, nil)
	if total != 4 || len(p.Stages) != 4 {
		t.Fatalf("chain critical path = %v (w=%v), want all 4 stages", p.Stages, total)
	}
}

func TestExecutionPathsNilWeight(t *testing.T) {
	g := fig7(t)
	r := reach(t, g)
	paths := ExecutionPaths(g, r, nil)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := fig7(t)
	c := g.Clone()
	c.MustAdd(Stage{ID: 99})
	if g.Len() == c.Len() {
		t.Fatal("mutating clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone validate: %v", err)
	}
}

// TestCloneStaysValidated: a clone of a validated graph answers the
// position views without a Validate of its own, from its own copy.
func TestCloneStaysValidated(t *testing.T) {
	g := fig7(t)
	c := g.Clone()
	if got := c.ChildrenView(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("clone children(1) = %v, want [3]", got)
	}
	if &c.ChildPos(0)[0] == &g.ChildPos(0)[0] {
		t.Fatal("clone shares the original's position index")
	}
}

// TestBuildErrors: Build reports what AddStage and Validate would for a
// repeated ID and a self-dependency, and rejects a parent position
// outside the stages or a parent list count that does not match.
func TestBuildErrors(t *testing.T) {
	if _, err := Build([]StageID{4, 7, 4}, make([][]int, 3)); err == nil || err.Error() != "dag: duplicate stage id: 4" {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := Build([]StageID{1, 2}, [][]int{nil, {1}}); !errors.Is(err, ErrCycle) {
		t.Fatalf("self-dependency: %v", err)
	}
	if _, err := Build([]StageID{1, 2}, [][]int{nil, {2}}); !errors.Is(err, ErrUnknownStage) {
		t.Fatalf("position out of range: %v", err)
	}
	if _, err := Build([]StageID{1, 2}, [][]int{nil}); err == nil {
		t.Fatal("parent lists for too few stages accepted")
	}
	g, err := Build(nil, nil)
	if err != nil || g.Len() != 0 {
		t.Fatalf("empty: %v, %d stages", err, g.Len())
	}
}

func TestDiamond(t *testing.T) {
	// 1 → {2,3} → 4: classic diamond; 2 and 3 are the only parallel stages.
	g := New()
	g.MustAdd(Stage{ID: 1})
	g.MustAdd(Stage{ID: 2, Parents: []StageID{1}})
	g.MustAdd(Stage{ID: 3, Parents: []StageID{1}})
	g.MustAdd(Stage{ID: 4, Parents: []StageID{2, 3}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	r := reach(t, g)
	k := ParallelStages(g, r)
	if len(k) != 2 {
		t.Fatalf("diamond K = %v, want {2,3}", k)
	}
	paths := ExecutionPaths(g, r, nil)
	if len(paths) != 2 || len(paths[0].Stages) != 1 || len(paths[1].Stages) != 1 {
		t.Fatalf("diamond paths = %v, want [{2},{3}]", paths)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := New()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo, err := g.TopoSort(); err != nil || len(topo) != 0 {
		t.Fatalf("empty topo = %v, %v", topo, err)
	}
	r := reach(t, g)
	if k := ParallelStages(g, r); k != nil {
		t.Fatalf("empty K = %v", k)
	}
	if p := ExecutionPaths(g, r, nil); p != nil {
		t.Fatalf("empty paths = %v", p)
	}
}
