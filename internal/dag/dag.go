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
// usable; construct with New.
type Graph struct {
	stages   map[StageID]*Stage
	children map[StageID][]StageID
	order    []StageID // insertion order, for deterministic iteration
	// childPos / parentPos index the edges by insertion position: entry i
	// lists the positions of stage order[i]'s children (in the order of
	// the child index) and parents (in Stage.Parents order). Validate
	// builds both over one backing array.
	childPos, parentPos [][]int
	// idPos lists the positions in ascending stage-ID order; Validate
	// builds it.
	idPos []int
	// validated marks that the child index matches the current stage set,
	// making repeated Validate calls read-only — and therefore safe from
	// concurrent evaluators hammering the same job (every sim.Run and
	// NewStepper validates its jobs).
	validated bool
	// stageSlab and parentSlab are NewSized's preallocated storage:
	// AddStage places stages and their parent lists there while capacity
	// lasts, and allocates them one by one after that.
	stageSlab  []Stage
	parentSlab []StageID
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

// ChildrenView returns id's child index slice WITHOUT copying. Callers
// must treat it as read-only; Validate must have run for the index to be
// populated. Same hot-path rationale as StagesView.
func (g *Graph) ChildrenView(id StageID) []StageID { return g.children[id] }

// Validate checks referential integrity and acyclicity and (re)builds the
// child index and the position index (Pos, ChildPos, ParentPos,
// IDOrderPos). It must
// be called after the last AddStage and before any analysis method. Once
// a graph has validated, further calls are read-only no-ops until the
// next AddStage.
func (g *Graph) Validate() error {
	if g.validated {
		return nil
	}
	kids, parents, err := g.buildIndex()
	if err != nil {
		return err
	}
	edges := 0
	for _, ks := range kids {
		edges += len(ks)
	}
	// The child index lists each stage's children in insertion order, all
	// slices of one backing array; stages without children get no entry.
	children := make(map[StageID][]StageID, len(g.stages))
	back := make([]StageID, edges)
	for i, ks := range kids {
		if len(ks) == 0 {
			continue
		}
		cs := back[:len(ks):len(ks)]
		back = back[len(ks):]
		for j, k := range ks {
			cs[j] = g.order[k]
		}
		children[g.order[i]] = cs
	}
	idPos := make([]int, len(g.order))
	for i := range idPos {
		idPos[i] = i
	}
	slices.SortFunc(idPos, func(a, b int) int { return cmp.Compare(g.order[a], g.order[b]) })
	g.children, g.childPos, g.parentPos, g.idPos = children, kids, parents, idPos
	if topoOrder(kids, parents) == nil {
		return ErrCycle
	}
	g.validated = true
	return nil
}

// buildIndex derives the position index of the current stage set without
// storing it: per insertion position, the positions of the stage's parents
// (Stage.Parents order) and children (insertion order of the child), all
// slices of one backing array.
func (g *Graph) buildIndex() (kids, parents [][]int, err error) {
	n := len(g.order)
	edges := 0
	for _, id := range g.order {
		edges += len(g.stages[id].Parents)
	}
	back := make([]int, 2*edges)
	parents = make([][]int, n)
	off := 0
	for i, id := range g.order {
		ps := g.stages[id].Parents
		pp := back[off : off+len(ps) : off+len(ps)]
		for j, p := range ps {
			par, ok := g.stages[p]
			if !ok {
				return nil, nil, fmt.Errorf("%w: stage %d references parent %d", ErrUnknownStage, id, p)
			}
			pp[j] = par.pos
		}
		parents[i] = pp
		off += len(ps)
	}
	return childIndex(parents, back[off:]), parents, nil
}

// childIndex inverts a parent-position index: entry i lists the positions
// of stage i's children in ascending order, a child once per edge, all
// slices of back, which must hold one slot per edge.
func childIndex(parents [][]int, back []int) [][]int {
	nKids := make([]int, len(parents))
	for _, pp := range parents {
		for _, p := range pp {
			nKids[p]++
		}
	}
	kids := make([][]int, len(parents))
	off := 0
	for i, k := range nKids {
		kids[i] = back[off : off : off+k]
		off += k
	}
	for i, pp := range parents {
		for _, p := range pp {
			kids[p] = append(kids[p], i)
		}
	}
	return kids
}

// Acyclic reports whether the graph given by a parent-position index has
// no dependency cycle: entry i lists the positions, each in
// [0, len(parents)), of stage i's parents. It is Validate's Kahn pass for
// callers that hold stages in their own form and need only the verdict,
// so they need not build a Graph to learn it.
func Acyclic(parents [][]int) bool {
	edges := 0
	for _, pp := range parents {
		edges += len(pp)
	}
	return topoOrder(childIndex(parents, make([]int, edges)), parents) != nil
}

// topoOrder is Kahn's algorithm over the position index: the ready queue
// is kept in insertion order (stages that become ready together enter in
// position order), so the result is deterministic. It returns the
// positions in topological order, or nil on a cycle.
func topoOrder(kids, parents [][]int) []int {
	n := len(parents)
	indeg := make([]int, n)
	queue := make([]int, 0, n)
	for i, pp := range parents {
		indeg[i] = len(pp)
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		start := len(queue)
		for _, c := range kids[queue[head]] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
		slices.Sort(queue[start:])
	}
	if len(queue) != n {
		return nil
	}
	return queue
}

// TopoSort returns the stage IDs in a topological order (parents before
// children). Ties are broken by insertion order so the result is
// deterministic. Returns ErrCycle if the graph is cyclic. On a validated
// graph it reads the stored position index; otherwise it derives one.
func (g *Graph) TopoSort() ([]StageID, error) {
	kids, parents := g.childPos, g.parentPos
	if !g.validated {
		var err error
		if kids, parents, err = g.buildIndex(); err != nil {
			return nil, err
		}
	}
	order := topoOrder(kids, parents)
	if order == nil {
		return nil, ErrCycle
	}
	out := make([]StageID, len(order))
	for i, p := range order {
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
// position i, in child-index order, WITHOUT copying. Callers must treat
// it as read-only; Validate must have run. The simulator wires every
// what-if run from the position index instead of hashing stage IDs.
func (g *Graph) ChildPos(i int) []int { return g.childPos[i] }

// ParentPos returns the positions of the parents of the stage at
// position i, in Stage.Parents order, WITHOUT copying. Same contract as
// ChildPos.
func (g *Graph) ParentPos(i int) []int { return g.parentPos[i] }

// IDOrderPos returns every stage's position, ordered by ascending stage
// ID, WITHOUT copying. Same contract as ChildPos. The simulator emits its
// per-stage timelines in this order.
func (g *Graph) IDOrderPos() []int { return g.idPos }

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

// Clone returns a deep copy of the graph (child index included if built).
func (g *Graph) Clone() *Graph {
	ng := New()
	for _, id := range g.order {
		ng.MustAdd(*g.stages[id])
	}
	ng.children = make(map[StageID][]StageID, len(g.children))
	for id, cs := range g.children {
		ng.children[id] = append([]StageID(nil), cs...)
	}
	return ng
}
