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
	// validated marks that the child index matches the current stage set,
	// making repeated Validate calls read-only — and therefore safe from
	// concurrent evaluators hammering the same job (sim.Run validates on
	// every what-if evaluation).
	validated bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		stages:   make(map[StageID]*Stage),
		children: make(map[StageID][]StageID),
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
	cp := s
	cp.Parents = append([]StageID(nil), s.Parents...)
	cp.pos = len(g.order)
	g.stages[s.ID] = &cp
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

// Children returns the IDs of stages that list id as a parent. Validate
// must have been called for the child index to be populated.
func (g *Graph) Children(id StageID) []StageID {
	return append([]StageID(nil), g.children[id]...)
}

// ChildrenView returns id's child index slice WITHOUT copying. Callers
// must treat it as read-only; Validate must have run for the index to be
// populated. Same hot-path rationale as StagesView.
func (g *Graph) ChildrenView(id StageID) []StageID { return g.children[id] }

// Validate checks referential integrity and acyclicity and (re)builds the
// child index and the position index (Pos, ChildPos, ParentPos). It must
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
	children := make(map[StageID][]StageID, len(g.stages))
	for _, id := range g.order {
		for _, p := range g.stages[id].Parents {
			children[p] = append(children[p], id)
		}
	}
	g.children, g.childPos, g.parentPos = children, kids, parents
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
	nKids := make([]int, n)
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
			nKids[par.pos]++
		}
		parents[i] = pp
		off += len(ps)
	}
	kids = make([][]int, n)
	for i, k := range nKids {
		kids[i] = back[off : off : off+k]
		off += k
	}
	for i, pp := range parents {
		for _, p := range pp {
			kids[p] = append(kids[p], i)
		}
	}
	return kids, parents, nil
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

// Leaves returns stages with no children, in insertion order.
func (g *Graph) Leaves() []StageID {
	var out []StageID
	for _, id := range g.order {
		if len(g.children[id]) == 0 {
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
	for id, cs := range g.children {
		ng.children[id] = append([]StageID(nil), cs...)
	}
	return ng
}
