package dag

// Reachability answers ancestor/descendant queries in O(1) after an
// O(V·E/64) bitset construction. It is the basis for parallel-stage
// detection: two stages can run in parallel iff neither reaches the other.
type Reachability struct {
	idx  map[StageID]int
	ids  []StageID
	desc []bitset // desc[i] = set of stages reachable from i (excluding i)
	anc  []bitset // anc[i]  = set of stages that reach i (excluding i)
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// NewReachability builds the transitive-closure bitsets for g. The graph
// must have been Validated (acyclic, child index built).
func NewReachability(g *Graph) (*Reachability, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	n := len(topo)
	r := &Reachability{
		idx:  make(map[StageID]int, n),
		ids:  topo,
		desc: make([]bitset, n),
		anc:  make([]bitset, n),
	}
	for i, id := range topo {
		r.idx[id] = i
	}
	for i := range topo {
		r.desc[i] = newBitset(n)
		r.anc[i] = newBitset(n)
	}
	// Descendants: walk topo order in reverse; desc(u) = ∪_{c∈children(u)} ({c} ∪ desc(c)).
	for i := n - 1; i >= 0; i-- {
		u := topo[i]
		for _, c := range g.ChildrenView(u) {
			ci := r.idx[c]
			r.desc[i].set(ci)
			r.desc[i].or(r.desc[ci])
		}
	}
	// Ancestors: forward pass.
	for i := 0; i < n; i++ {
		u := topo[i]
		for _, p := range g.stages[u].Parents {
			pi := r.idx[p]
			r.anc[i].set(pi)
			r.anc[i].or(r.anc[pi])
		}
	}
	return r, nil
}

// Reaches reports whether a is an ancestor of b (a strictly precedes b).
func (r *Reachability) Reaches(a, b StageID) bool {
	ai, ok1 := r.idx[a]
	bi, ok2 := r.idx[b]
	if !ok1 || !ok2 {
		return false
	}
	return r.desc[ai].get(bi)
}

// ConcurrencyDegree returns, for each stage, how many other stages it can
// run in parallel with. A stage belongs to the parallel-stage set K iff its
// degree is ≥ 1 (Sec. 2.1 of the paper).
func (r *Reachability) ConcurrencyDegree(id StageID) int {
	i, ok := r.idx[id]
	if !ok {
		return 0
	}
	n := len(r.ids)
	return n - 1 - r.desc[i].count() - r.anc[i].count()
}
