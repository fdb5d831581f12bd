// Package dag models the stage dependency graph of a DAG-style data
// analytics job (Spark, Flink, MapReduce chains, ...) and provides the
// graph analyses that DelayStage (ICPP 2019) builds on: topological
// sorting, parallel-stage detection, and execution-path decomposition.
//
// A Stage is the unit of scheduling: a set of identical tasks separated
// from its parents by a shuffle. The Graph records the "child depends on
// parent" edges; it must be acyclic.
package dag

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// StageID identifies a stage within one job's graph. IDs are assigned by
// the caller and must be unique within a Graph; they carry no ordering
// semantics beyond identity.
type StageID int

// Stage is one node of the job DAG.
type Stage struct {
	ID      StageID
	Name    string
	Parents []StageID // stages whose full output this stage shuffle-reads

	pos int // insertion position, set by AddStage
}

// Graph is a directed acyclic graph of stages. The zero value is not
// usable; construct with New, NewSized or Build.
type Graph struct {
	stages map[StageID]*Stage
	order  []StageID // insertion order, for deterministic iteration
	// idx is the position index Validate and Build derive; it is never
	// changed in place, only replaced.
	idx index
	// validated marks that idx matches the current stage set, making
	// repeated Validate calls read-only — and therefore safe from
	// concurrent evaluators hammering the same job (every sim.Run and
	// NewStepper validates its jobs).
	validated bool
	// stageSlab and parentSlab are NewSized's preallocated storage:
	// AddStage places stages and their parent lists there while capacity
	// lasts, and allocates them one by one after that.
	stageSlab  []Stage
	parentSlab []StageID
}

// index holds a graph's edges by insertion position in compressed-row
// form: stage i's parents sit at parentPos[parentOff[i]:parentOff[i+1]]
// (Stage.Parents order) and its children at
// childPos[childOff[i]:childOff[i+1]] (ascending position, a child once
// per edge), with the children's IDs in the same range of childIDs. topo
// is Kahn's order of the positions and idPos the positions in ascending
// stage-ID order. Every int slice shares one backing array.
type index struct {
	parentOff, parentPos, childOff, childPos, topo, idPos []int
	childIDs                                              []StageID
}

// newIndex carves an index for n stages and e edges out of back, which
// it grows when short; childIDs, one slot per edge, comes from the
// caller.
func newIndex(n, e int, back []int, childIDs []StageID) index {
	if k := indexInts(n, e); cap(back) < k {
		back = make([]int, k)
	}
	cut := func(k int) []int {
		s := back[:k:k]
		back = back[k:]
		return s
	}
	return index{
		parentOff: cut(n + 1), parentPos: cut(e),
		childOff: cut(n + 1), childPos: cut(e),
		topo: cut(n), idPos: cut(n),
		childIDs: childIDs,
	}
}

// indexInts is the length of the int array an index for n stages and e
// edges is carved from.
func indexInts(n, e int) int { return 4*n + 2 + 2*e }

// setParents fills the parent half of the index from parents, entry i
// the positions of stage i's parents, and returns the first position
// outside [0, len(parents)) it meets as (stage, parent), or -1, -1.
func (ix *index) setParents(parents [][]int) (int, int) {
	n := len(parents)
	off := 0
	for i, pp := range parents {
		ix.parentOff[i] = off
		for _, p := range pp {
			if p < 0 || p >= n {
				return i, p
			}
			ix.parentPos[off] = p
			off++
		}
	}
	ix.parentOff[n] = off
	return -1, -1
}

// complete fills in the rest of an index whose parent half (parentOff,
// parentPos) is set, for the stages order, and reports whether the graph
// is acyclic. On a cycle topo holds only the stages Kahn's pass reached.
func (ix *index) complete(order []StageID) bool {
	ix.link(order)
	ok := ix.kahn()
	for i := range ix.idPos {
		ix.idPos[i] = i
	}
	slices.SortFunc(ix.idPos, func(a, b int) int { return cmp.Compare(order[a], order[b]) })
	return ok
}

// link inverts the parent half into the child half. Visiting the
// children by position lists each stage's children in ascending
// position. It fills childIDs from order unless order is nil, and uses
// idPos as its fill cursor.
func (ix *index) link(order []StageID) {
	n := len(ix.idPos)
	off := ix.childOff
	clear(off)
	for _, p := range ix.parentPos {
		off[p+1]++
	}
	for i := range n {
		off[i+1] += off[i]
	}
	next := ix.idPos
	copy(next, off[:n])
	for i := range n {
		for _, p := range ix.parentPos[ix.parentOff[i]:ix.parentOff[i+1]] {
			ix.childPos[next[p]] = i
			if order != nil {
				ix.childIDs[next[p]] = order[i]
			}
			next[p]++
		}
	}
}

// kahn is Kahn's algorithm over the index, writing the order into topo
// with idPos as the in-degree scratch. Children are listed in ascending
// position, so stages that become ready together enter the queue in
// position order and the result is deterministic. It reports whether
// every stage was ordered.
func (ix *index) kahn() bool {
	indeg, queue := ix.idPos, ix.topo
	q := 0
	for i := range indeg {
		indeg[i] = ix.parentOff[i+1] - ix.parentOff[i]
		if indeg[i] == 0 {
			queue[q] = i
			q++
		}
	}
	for head := 0; head < q; head++ {
		u := queue[head]
		for _, c := range ix.childPos[ix.childOff[u]:ix.childOff[u+1]] {
			if indeg[c]--; indeg[c] == 0 {
				queue[q] = c
				q++
			}
		}
	}
	return q == len(indeg)
}

// clone returns a deep copy of the index.
func (ix *index) clone() index {
	c := newIndex(len(ix.topo), len(ix.childIDs), nil, slices.Clone(ix.childIDs))
	copy(c.parentOff, ix.parentOff)
	copy(c.parentPos, ix.parentPos)
	copy(c.childOff, ix.childOff)
	copy(c.childPos, ix.childPos)
	copy(c.topo, ix.topo)
	copy(c.idPos, ix.idPos)
	return c
}

// New returns an empty graph.
func New() *Graph { return NewSized(0, 0) }

// NewSized returns an empty graph presized for the given number of stages
// and parent edges: the first stages AddStage calls share one stage array,
// and their first edges parent IDs one backing array, instead of
// allocating per stage. Builders that know the job's shape up front use
// it.
func NewSized(stages, edges int) *Graph {
	return &Graph{
		stages:     make(map[StageID]*Stage, stages),
		order:      make([]StageID, 0, stages),
		stageSlab:  make([]Stage, 0, stages),
		parentSlab: make([]StageID, 0, edges),
	}
}

// ErrDuplicateStage is returned by AddStage when the stage ID is taken.
var ErrDuplicateStage = errors.New("dag: duplicate stage id")

// ErrUnknownStage is returned when an operation references a stage ID that
// is not in the graph.
var ErrUnknownStage = errors.New("dag: unknown stage id")

// ErrCycle is returned by Validate and TopoSort when the graph contains a
// dependency cycle.
var ErrCycle = errors.New("dag: dependency cycle")

// AddStage inserts a stage. Parent IDs may reference stages added later;
// Validate checks that all of them exist.
func (g *Graph) AddStage(s Stage) error {
	if _, ok := g.stages[s.ID]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateStage, s.ID)
	}
	var cp *Stage
	if n := len(g.stageSlab); n < cap(g.stageSlab) {
		g.stageSlab = g.stageSlab[:n+1]
		cp = &g.stageSlab[n]
	} else {
		cp = new(Stage)
	}
	*cp = s
	if k, n := len(s.Parents), len(g.parentSlab); k > 0 && n+k <= cap(g.parentSlab) {
		g.parentSlab = append(g.parentSlab, s.Parents...)
		cp.Parents = g.parentSlab[n : n+k : n+k]
	} else {
		cp.Parents = append([]StageID(nil), s.Parents...)
	}
	cp.pos = len(g.order)
	g.stages[s.ID] = cp
	g.order = append(g.order, s.ID)
	g.validated = false
	return nil
}

// MustAdd is AddStage that panics on error; convenient in workload builders
// where IDs are static.
func (g *Graph) MustAdd(s Stage) {
	if err := g.AddStage(s); err != nil {
		panic(err)
	}
}

// Len returns the number of stages.
func (g *Graph) Len() int { return len(g.stages) }

// Stage returns the stage with the given ID, or nil if absent.
func (g *Graph) Stage(id StageID) *Stage { return g.stages[id] }

// Stages returns all stage IDs in insertion order.
func (g *Graph) Stages() []StageID {
	return append([]StageID(nil), g.order...)
}

// StagesView returns the insertion-order stage IDs WITHOUT copying.
// Callers must treat the slice as read-only; it is invalidated by the
// next AddStage. Hot paths (the simulator builds per-run state for every
// what-if evaluation) use it to avoid per-call allocation.
func (g *Graph) StagesView() []StageID { return g.order }

// Parents returns the parent IDs of id (nil if unknown).
func (g *Graph) Parents(id StageID) []StageID {
	s := g.stages[id]
	if s == nil {
		return nil
	}
	return append([]StageID(nil), s.Parents...)
}

// ChildrenView returns id's child IDs, in ascending position, WITHOUT
// copying (nil for a leaf or an unknown id). Callers must treat it as
// read-only; Validate must have run for the index to be populated. Same
// hot-path rationale as StagesView.
func (g *Graph) ChildrenView(id StageID) []StageID {
	s := g.stages[id]
	if s == nil || s.pos+1 >= len(g.idx.childOff) {
		return nil
	}
	lo, hi := g.idx.childOff[s.pos], g.idx.childOff[s.pos+1]
	if lo == hi {
		return nil
	}
	return g.idx.childIDs[lo:hi:hi]
}

// Validate checks referential integrity and acyclicity and (re)builds the
// position index (ChildrenView, Pos, ChildPos, ParentPos, IDOrderPos). It
// must be called after the last AddStage and before any analysis method.
// Once a graph has validated, further calls are read-only no-ops until
// the next AddStage.
func (g *Graph) Validate() error {
	if g.validated {
		return nil
	}
	ix, err := g.buildIndex()
	if err != nil {
		return err
	}
	ok := ix.complete(g.order)
	g.idx = ix
	if !ok {
		return ErrCycle
	}
	g.validated = true
	return nil
}

// buildIndex derives the parent half of the position index of the
// current stage set, with room for the rest, without storing it.
func (g *Graph) buildIndex() (index, error) {
	edges := 0
	for _, id := range g.order {
		edges += len(g.stages[id].Parents)
	}
	ix := newIndex(len(g.order), edges, nil, make([]StageID, edges))
	off := 0
	for i, id := range g.order {
		ix.parentOff[i] = off
		for _, p := range g.stages[id].Parents {
			par, ok := g.stages[p]
			if !ok {
				return index{}, fmt.Errorf("%w: stage %d references parent %d", ErrUnknownStage, id, p)
			}
			ix.parentPos[off] = par.pos
			off++
		}
	}
	ix.parentOff[len(g.order)] = off
	return ix, nil
}

// Build returns the validated graph of the stages ids, inserted in that
// order, where parents[i] lists the positions in ids of stage i's
// parents. It is AddStage for every stage followed by Validate, with the
// same errors — ErrDuplicateStage for the first repeated ID, ErrCycle —
// plus ErrUnknownStage for a parent position outside ids, but it fills
// the graph in one pass with a fixed number of allocations. Builders
// that already hold their stages by position use it.
func Build(ids []StageID, parents [][]int) (*Graph, error) {
	n := len(ids)
	if len(parents) != n {
		return nil, fmt.Errorf("dag: %d parent lists for %d stages", len(parents), n)
	}
	g := &Graph{stages: make(map[StageID]*Stage, n), stageSlab: make([]Stage, n)}
	for i, id := range ids {
		if _, ok := g.stages[id]; ok {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateStage, id)
		}
		g.stages[id] = &g.stageSlab[i]
	}
	edges := 0
	for _, pp := range parents {
		edges += len(pp)
	}
	// One array holds the insertion order, the parent lists and the child
	// IDs; each part is capped so that a later AddStage cannot write into
	// the next.
	sids := make([]StageID, n+2*edges)
	g.order = sids[:n:n]
	copy(g.order, ids)
	g.parentSlab = sids[n : n+edges : n+edges]
	ix := newIndex(n, edges, nil, sids[n+edges:])
	if i, p := ix.setParents(parents); i >= 0 {
		return nil, fmt.Errorf("%w: stage %d references parent position %d", ErrUnknownStage, ids[i], p)
	}
	for i, id := range ids {
		st := &g.stageSlab[i]
		st.ID, st.pos = id, i
		if lo, hi := ix.parentOff[i], ix.parentOff[i+1]; hi > lo {
			ps := g.parentSlab[lo:hi:hi]
			for j, p := range ix.parentPos[lo:hi] {
				ps[j] = ids[p]
			}
			st.Parents = ps
		}
	}
	ok := ix.complete(g.order)
	g.idx = ix
	if !ok {
		return nil, ErrCycle
	}
	g.validated = true
	return g, nil
}

// CycleCheck runs Validate's Kahn pass over parent-position indexes for
// callers that hold stages in their own form and need only the verdict,
// reusing its scratch from call to call: the trace parser checks every
// job of a trace with one. The zero value is ready to use.
type CycleCheck struct{ back []int }

// Acyclic reports whether the graph given by a parent-position index has
// no dependency cycle: entry i lists the positions of stage i's parents.
// A position outside [0, len(parents)) counts as a cycle.
func (c *CycleCheck) Acyclic(parents [][]int) bool {
	edges := 0
	for _, pp := range parents {
		edges += len(pp)
	}
	if k := indexInts(len(parents), edges); cap(c.back) < k {
		c.back = make([]int, k)
	}
	ix := newIndex(len(parents), edges, c.back, nil)
	if i, _ := ix.setParents(parents); i >= 0 {
		return false
	}
	ix.link(nil)
	return ix.kahn()
}

// Acyclic is CycleCheck.Acyclic with a fresh scratch.
func Acyclic(parents [][]int) bool {
	var c CycleCheck
	return c.Acyclic(parents)
}

// TopoSort returns the stage IDs in a topological order (parents before
// children). Ties are broken by insertion order so the result is
// deterministic. Returns ErrCycle if the graph is cyclic. On a validated
// graph it reads the stored order; otherwise it derives one.
func (g *Graph) TopoSort() ([]StageID, error) {
	ix := g.idx
	if !g.validated {
		var err error
		if ix, err = g.buildIndex(); err != nil {
			return nil, err
		}
		if !ix.complete(g.order) {
			return nil, ErrCycle
		}
	}
	out := make([]StageID, len(ix.topo))
	for i, p := range ix.topo {
		out[i] = g.order[p]
	}
	return out, nil
}

// Pos returns the insertion position of stage id (its index in
// StagesView), or -1 if the graph has no such stage.
func (g *Graph) Pos(id StageID) int {
	if s := g.stages[id]; s != nil {
		return s.pos
	}
	return -1
}

// ChildPos returns the positions of the children of the stage at
// position i, in ascending order, WITHOUT copying. Callers must treat it
// as read-only; Validate must have run. The simulator wires every what-if
// run from the position index instead of hashing stage IDs.
func (g *Graph) ChildPos(i int) []int {
	lo, hi := g.idx.childOff[i], g.idx.childOff[i+1]
	return g.idx.childPos[lo:hi:hi]
}

// ParentPos returns the positions of the parents of the stage at
// position i, in Stage.Parents order, WITHOUT copying. Same contract as
// ChildPos.
func (g *Graph) ParentPos(i int) []int {
	lo, hi := g.idx.parentOff[i], g.idx.parentOff[i+1]
	return g.idx.parentPos[lo:hi:hi]
}

// IDOrderPos returns every stage's position, ordered by ascending stage
// ID, WITHOUT copying. Same contract as ChildPos. The simulator emits its
// per-stage timelines in this order.
func (g *Graph) IDOrderPos() []int { return g.idx.idPos }

// Roots returns stages with no parents, in insertion order.
func (g *Graph) Roots() []StageID {
	var out []StageID
	for _, id := range g.order {
		if len(g.stages[id].Parents) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Clone returns a deep copy of the graph. A clone of a validated graph is
// validated, with its own copy of the position index.
func (g *Graph) Clone() *Graph {
	edges := 0
	for _, id := range g.order {
		edges += len(g.stages[id].Parents)
	}
	ng := NewSized(len(g.order), edges)
	for _, id := range g.order {
		ng.MustAdd(*g.stages[id])
	}
	if g.validated {
		ng.idx, ng.validated = g.idx.clone(), true
	}
	return ng
}
