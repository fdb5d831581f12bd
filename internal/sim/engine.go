package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"delaystage/internal/dag"
)

// The engine advances a set of fluid work items through time. Between two
// events every item's rate is constant; an event is the earliest of: an
// item completing, a timer firing (job arrival / delayed stage
// submission), or an availability-capped prefetch catching up with its
// cap. After each event rates are recomputed — but only on nodes whose
// item set or availability cap changed since the last event (dirty
// tracking): a node whose consumer set is unchanged keeps its previous
// rates, which are a pure function of that set and therefore already
// bit-identical to what a recomputation would produce.

type phase uint8

const (
	phRead phase = iota
	phCompute
	phWrite
)

const (
	eps = 1e-6 // bytes / seconds tolerance
	// availEps is the availability-backlog granularity in bytes: finer
	// backlogs are treated as caught-up (prevents micro-event storms).
	availEps = 1.0
	// minDT floors the event step; progress below it is advanced anyway
	// so pathological rate oscillations cannot stall simulated time.
	minDT = 1e-6
)

type skey struct {
	job   int
	stage dag.StageID
}

// item is one fluid work unit: a phase of one stage's partition on one node.
type item struct {
	key skey
	st  int // owning stage's slab index (engine.states)
	// home is the logical partition index (which of the stage's N
	// partitions this is); node is the machine executing it. They are
	// equal unless blacklisting rerouted the work. Lifecycle bookkeeping
	// (readsLeft etc.) counts homes; machine-level faults hit nodes.
	home int
	node int // index into engine.nodes
	ph   phase

	remaining float64 // bytes left
	rate      float64 // current bytes/s, recomputed every event

	// Availability capping (AggShuffle prefetch): done may not exceed
	// capVolume·A(t) where A is the stage's input availability.
	capped  bool
	done    float64 // bytes completed (only maintained for capped items)
	volume  float64 // total bytes of this item (for cap computation)
	capRate float64 // current availability production rate, bytes/s

	// execUsed is the executors this compute item currently occupies
	// (share capped by task count); drives CPU-utilization accounting.
	execUsed float64

	// Fault injection. attempt is 1-based; failAt > 0 marks a doomed
	// attempt that dies once volume−remaining reaches it; slow > 1 divides
	// the compute rate (straggler); recompute marks lineage-recomputation
	// items whose completion routes to the recovery chain, not the stage.
	attempt   int
	failAt    float64
	slow      float64
	recompute bool

	// Speculation: spec marks a clone; rival links the two racing twins
	// (original ↔ clone); cancelled marks the loser of a decided race —
	// it is unlinked immediately, the flag only shields the already-
	// collected done/dead batch entry from firing transitions. startAt
	// is the item's creation time (progress projection baseline).
	spec      bool
	rival     *item
	cancelled bool
	startAt   float64
}

// stageState tracks one (job, stage) through its lifecycle. It lives in
// the engine's slab (engine.states) and refers to other stages by slab
// index, never by pointer, so a fork copies the slab in bulk.
type stageState struct {
	key     skey
	profile profileView

	// idx is the stage's own slab index, base the slab index of its
	// job's first stage. children and parents are the graph's shared,
	// read-only position lists (dag.Graph.ChildPos/ParentPos): base+p is
	// a relative's slab index. wOff is where the stage's availability
	// weights over its parents start in engine.availW (AggShuffle only).
	idx      int
	base     int
	children []int
	parents  []int
	wOff     int

	parentsLeft int

	readsLeft   int
	computeLeft int
	writesLeft  int

	// pendingCompute holds node indices whose read finished before all
	// parents completed (possible only with AggShuffle prefetch).
	pendingCompute []int

	submitted   bool // read items created
	prefetched  bool // read items were created as an AggShuffle prefetch
	computeDone float64
	computeTot  float64

	tl StageTimeline
	// readyValid marks tl.Ready as set.
	readyValid bool
	complete   bool

	// retries counts failed partition attempts (faults only).
	retries int
	// compDurs records finished compute-partition durations and specDone
	// the partitions already cloned — both only maintained under
	// Options.Speculation (nil otherwise).
	compDurs []float64
	specDone map[int]bool
	// recomputeHolds > 0 blocks compute starts while a crashed parent's
	// shuffle output is being recomputed (lineage recovery).
	recomputeHolds int
	// submitAt is the authoritative submission time once ready; a
	// watchdog may move it (tSubmitStage re-schedules itself until now ≥
	// submitAt).
	submitAt float64
	// delayOverride, when hasOverride is set, replaces the run's
	// configured delay (a watchdog or Resume revision that arrived before
	// the stage became ready).
	hasOverride   bool
	delayOverride float64
}

type profileView struct {
	perNodeIn  float64
	perNodeOut float64
	procRate   float64
	skew       float64
	// tasksPerNode caps the executors a stage can use on one node: a
	// stage with fewer tasks than its executor share leaves the surplus
	// idle (one task occupies at most one executor). Zero means "one
	// full wave" (no cap).
	tasksPerNode float64
}

// timer is a scheduled engine event.
type timer struct {
	at   float64
	seq  int
	kind timerKind
	st   int // slab index of the stage (tSubmitStage, tRetry only)
	job  int
	// retry payload (tRetry only); home is the logical partition, node
	// the machine the dead attempt ran on.
	node    int
	home    int
	ph      phase
	attempt int
	recomp  bool
}

type timerKind uint8

const (
	tJobArrival timerKind = iota
	tSubmitStage
	tRecompute // no-op: forces a rate recomputation (availability catch-up)
	tRetry     // re-create a failed partition-phase attempt after backoff
	tNodeCrash // lose a node's in-flight tasks and stored shuffle outputs
)

// timerHeap is a binary min-heap of timers ordered by (at, seq). It is
// typed end to end — no container/heap interface{} boxing, which churned
// one allocation per push in long trace replays.
type timerHeap []timer

func (t timer) before(o timer) bool {
	if t.at != o.at {
		return t.at < o.at
	}
	return t.seq < o.seq
}

// push inserts a timer, sifting it up to its heap position.
func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the earliest timer.
func (h *timerHeap) pop() timer {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s[l].before(s[least]) {
			least = l
		}
		if r < n && s[r].before(s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

type engine struct {
	opt  Options
	runs []JobRun

	nNodes                         int
	totalExec, totalNet, totalDisk float64

	// engineBufs holds the slab, items, timers, buckets and scratch: every
	// buffer a pooled engine reuses. All other fields are per-run state
	// that starts at its zero value.
	engineBufs

	seq int
	now float64

	res *Result

	// usage integration
	lastTrack    float64
	cpuBusyInt   float64 // executor-seconds busy, cluster-wide
	netBytesInt  float64
	diskBytesInt float64

	// fault / recovery state
	jobsLeft int // jobs neither complete nor failed

	// Machine health. nodeSlow[w] > 1 divides every phase rate on node w
	// (persistent slow machine); nil when every node is healthy, so the
	// fault-free fast path stays untouched. faultCount / blacklisted /
	// nBlacklisted exist only when BlacklistAfter > 0.
	nodeSlow     []float64
	faultCount   []int
	blacklisted  []bool
	nBlacklisted int

	// shareObs is Options.Observer when it also implements ShareObserver
	// (resolved once at construction); nil otherwise.
	shareObs ShareObserver

	// Checkpointing (SnapshotAt): with haltSet, the event loop stops at an
	// event boundary before simulated time reaches haltAt — before firing
	// any timer whose effective time is ≥ haltAt and before any advance
	// that would land at or past it. A halted engine holds exactly the
	// state a from-scratch run has at that boundary, so resuming replays
	// the identical floating-point trajectory.
	//
	// haltInject (Stepper.AdvanceBefore) also stops where a timer at haltAt
	// would already be due — within eps, before the prefetch pass — so the
	// stepped prefix is exactly the one a world that also held a run
	// arriving at haltAt would have stepped: the boundary Inject needs.
	// (An advance never needs the extra care: if now+dt rounds below
	// haltAt, haltAt−now ≥ dt, so such a timer would not shorten it.)
	haltSet    bool
	haltAt     float64
	halted     bool
	haltInject bool
}

// engineBufs are the engine's reusable buffers. They keep their capacity
// from run to run but no contents: reset empties them for a new run and
// release empties them before the engine goes back to the pool.
type engineBufs struct {
	// Per-node capacities of the run's cluster.
	netBW  []float64
	diskBW []float64
	execs  []float64

	// states is the stage-state slab, one entry per (job, stage) in
	// (job, insertion) order: job j's stage s sits at jobBase[j] +
	// Graph.Pos(s). Iterating it is deterministic, so maybePrefetch
	// submits prefetches — and thus appends items — in a fixed order.
	states  []stageState
	jobBase []int
	// availW holds every stage's availability weights over its parents,
	// proportional to parent shuffle-output size (AggShuffle only).
	availW []float64
	items  []*item
	timers timerHeap

	// Per-node, per-phase item buckets, maintained incrementally as items
	// are added and removed so the rates pass does not rebuild them every
	// event. Bucket order is the e.items subsequence order, preserving
	// the exact accumulation order of the pre-dirty-tracking engine.
	computeBk [][]*item
	readBk    [][]*item
	writeBk   [][]*item
	// dirty[w] marks that node w's consumer set for the phase changed
	// since its rates were last computed.
	dirtyC []bool
	dirtyR []bool
	dirtyW []bool

	occOpen map[skey]*OccupancySegment

	// fault / recovery state
	stagesLeft []int  // incomplete stages per job
	failed     []bool // per-job abort flag
	recomps    map[recompKey]*recompState

	// Scratch buffers reused across events (the engine is single-threaded;
	// each is live only within one helper call). medScratch is the
	// speculation median scratch, shareScr the sample scratch handed to
	// ShareObserver.OnShares.
	itemPool      []*item
	medScratch    []float64
	shareScr      []ShareSample
	shareScratch  []float64
	demandScratch []float64
	weightScratch []float64
	wfAlloc       []float64
	wfActive      []int
	busyScratch   []float64
	doneScratch   []*item
	deadScratch   []*item
	perJobScratch map[int]int
	stageRates    []float64 // per-slab-index total compute rate (AggShuffle)
}

// recompKey identifies one lineage recomputation: the producing stage's
// partition on the crashed node.
type recompKey struct {
	key  skey
	node int
}

// recompState tracks an in-flight recomputation and the child stages (by
// slab index) it holds back from computing.
type recompState struct {
	held []int
}

// enginePool recycles the buffers of engines whose run is over: the stage
// slab, item list and item pool, timer heap, per-node buckets and every
// scratch slice. A what-if evaluation thus rebuilds no world — newEngine
// resets a pooled engine in place. Only engines nothing else references go
// back (release): a Run's, a Resume's fork, a Stepper's once its Result is
// taken. The Result is never pooled; it always belongs to the caller.
var enginePool sync.Pool

// newEngine returns an engine for the given runs with a fresh Result. The
// per-job result and abort slots are sized for the initial runs;
// Stepper.Inject grows them.
func newEngine(opt Options, runs []JobRun) *engine {
	e := resetEngine(opt, runs)
	e.res = &Result{
		Timelines: make([]StageTimeline, 0, stageCount(runs)),
		JobEnd:    make([]float64, len(runs)),
		JobStart:  make([]float64, len(runs)),
		JobErrors: make([]error, len(runs)),
	}
	return e
}

// resetEngine returns an engine for the given runs, reset from a pooled
// one when the pool has one, without a Result.
func resetEngine(opt Options, runs []JobRun) *engine {
	e, _ := enginePool.Get().(*engine)
	if e == nil {
		e = new(engine)
	}
	// Only the buffers survive; every other field starts at its zero value.
	*e = engine{engineBufs: e.engineBufs, opt: opt, runs: runs, nNodes: len(opt.Cluster.Nodes)}
	e.reset(e.nNodes, len(runs), stageCount(runs))
	for _, n := range opt.Cluster.Nodes {
		e.netBW = append(e.netBW, n.NetBW)
		e.diskBW = append(e.diskBW, n.DiskBW)
		e.execs = append(e.execs, float64(n.Executors))
	}
	e.totalExec = float64(opt.Cluster.TotalExecutors())
	e.totalNet = opt.Cluster.TotalNetBW()
	e.totalDisk = opt.Cluster.TotalDiskBW()
	if so, ok := opt.Observer.(ShareObserver); ok {
		e.shareObs = so
	}
	return e
}

// stageCount is the number of (job, stage) pairs over the runs.
func stageCount(runs []JobRun) int {
	n := 0
	for _, r := range runs {
		n += r.Job.Graph.Len()
	}
	return n
}

// release hands a finished engine's buffers back to the pool. The caller
// must hold the only reference: nothing may touch the engine afterwards.
// References into the caller's world (options, runs, graphs, the Result)
// are dropped so a pooled engine pins none of it.
func (e *engine) release() {
	e.empty()
	*e = engine{engineBufs: e.engineBufs}
	enginePool.Put(e)
}

// empty drops the buffers' contents, keeping their capacity. Live items
// rejoin the item pool; the slab, buckets and maps are cleared so no
// stale stage, item or graph reference outlives its run.
func (b *engineBufs) empty() {
	b.itemPool = append(b.itemPool, b.items...)
	clear(b.items)
	b.items = b.items[:0]
	clear(b.states)
	b.states = b.states[:0]
	for w := range b.computeBk {
		clear(b.computeBk[w])
		clear(b.readBk[w])
		clear(b.writeBk[w])
	}
	b.netBW, b.diskBW, b.execs = b.netBW[:0], b.diskBW[:0], b.execs[:0]
	b.jobBase, b.availW, b.timers = b.jobBase[:0], b.availW[:0], b.timers[:0]
	b.stagesLeft = b.stagesLeft[:0]
	b.doneScratch, b.deadScratch = b.doneScratch[:0], b.deadScratch[:0]
	clear(b.occOpen)
	clear(b.recomps)
	clear(b.perJobScratch)
}

// reset empties the buffers and sizes them for a run over nNodes nodes,
// nJobs jobs and nStages (job, stage) pairs.
func (b *engineBufs) reset(nNodes, nJobs, nStages int) {
	b.empty()
	if b.occOpen == nil {
		b.occOpen = make(map[skey]*OccupancySegment)
		b.recomps = make(map[recompKey]*recompState)
		b.perJobScratch = make(map[int]int)
	}
	b.netBW = slices.Grow(b.netBW, nNodes)
	b.diskBW = slices.Grow(b.diskBW, nNodes)
	b.execs = slices.Grow(b.execs, nNodes)
	b.states = slices.Grow(b.states, nStages)
	b.computeBk = resizeBuckets(b.computeBk, nNodes)
	b.readBk = resizeBuckets(b.readBk, nNodes)
	b.writeBk = resizeBuckets(b.writeBk, nNodes)
	b.dirtyC = resizeBools(b.dirtyC, nNodes)
	b.dirtyR = resizeBools(b.dirtyR, nNodes)
	b.dirtyW = resizeBools(b.dirtyW, nNodes)
	b.failed = resizeBools(b.failed, nJobs)
	resizeF64(&b.busyScratch, nNodes)
}

// resizeBuckets empties n per-node item buckets, keeping their backing
// arrays. Buckets it has to create start as bucketCap-slot windows of one
// shared array, so a fresh engine allocates two slices per phase rather
// than a growing slice per node; a bucket that outgrows its window moves
// to an array of its own.
func resizeBuckets(bk [][]*item, n int) [][]*item {
	if old := len(bk); cap(bk) < n {
		bk = append(bk[:cap(bk)], make([][]*item, n-cap(bk))...)
		back := make([]*item, (n-old)*bucketCap)
		for w := old; w < n; w++ {
			i := (w - old) * bucketCap
			bk[w] = back[i : i : i+bucketCap]
		}
	}
	bk = bk[:n]
	for w := range bk {
		bk[w] = bk[w][:0]
	}
	return bk
}

// bucketCap is the initial per-node bucket capacity.
const bucketCap = 4

// resizeBools returns n false flags, reusing s's backing array.
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// itemBlock is how many items one item-pool miss allocates at once: a
// fresh engine pays a few block allocations instead of one per item.
const itemBlock = 32

// newItem returns an item from the pool. Its contents are stale: every
// caller overwrites the whole item.
func (e *engine) newItem() *item {
	if len(e.itemPool) == 0 {
		block := make([]item, itemBlock)
		e.itemPool = slices.Grow(e.itemPool, itemBlock)
		for i := range block {
			e.itemPool = append(e.itemPool, &block[i])
		}
	}
	n := len(e.itemPool)
	it := e.itemPool[n-1]
	e.itemPool = e.itemPool[:n-1]
	return it
}

// freeItem returns a no-longer-referenced item to the pool.
func (e *engine) freeItem(it *item) {
	e.itemPool = append(e.itemPool, it)
}

// addItem registers a new work item with the master list and its node's
// phase bucket, marking the node dirty for that resource. It also stamps
// the item's creation time (speculation's projection baseline).
func (e *engine) addItem(it *item) {
	it.startAt = e.now
	e.items = append(e.items, it)
	switch it.ph {
	case phCompute:
		e.computeBk[it.node] = append(e.computeBk[it.node], it)
		e.dirtyC[it.node] = true
	case phRead:
		e.readBk[it.node] = append(e.readBk[it.node], it)
		e.dirtyR[it.node] = true
	case phWrite:
		e.writeBk[it.node] = append(e.writeBk[it.node], it)
		e.dirtyW[it.node] = true
	}
}

// bucketOf returns the item's node's bucket for its phase.
func (e *engine) bucketOf(it *item) *[]*item {
	switch it.ph {
	case phCompute:
		return &e.computeBk[it.node]
	case phRead:
		return &e.readBk[it.node]
	}
	return &e.writeBk[it.node]
}

// bucketRemove drops an item from its node's phase bucket (preserving
// order) and marks the node dirty. The caller removes it from e.items.
func (e *engine) bucketRemove(it *item) {
	var bk []*item
	switch it.ph {
	case phCompute:
		bk = e.computeBk[it.node]
		e.dirtyC[it.node] = true
	case phRead:
		bk = e.readBk[it.node]
		e.dirtyR[it.node] = true
	case phWrite:
		bk = e.writeBk[it.node]
		e.dirtyW[it.node] = true
	}
	for i, b := range bk {
		if b == it {
			bk = append(bk[:i], bk[i+1:]...)
			break
		}
	}
	switch it.ph {
	case phCompute:
		e.computeBk[it.node] = bk
	case phRead:
		e.readBk[it.node] = bk
	case phWrite:
		e.writeBk[it.node] = bk
	}
}

func (e *engine) pushTimer(at float64, kind timerKind, st, job int) {
	e.seq++
	e.timers.push(timer{at: at, seq: e.seq, kind: kind, st: st, job: job})
}

// timerKey is the stage a timer names, zero for job and node timers.
func (e *engine) timerKey(t timer) skey {
	if t.kind == tSubmitStage || t.kind == tRetry {
		return e.states[t.st].key
	}
	return skey{}
}

// arrivalSeq is job ji's arrival-timer sequence number. Arrivals take a
// reserved range below every counter-issued seq, so at equal times they
// fire before all other timers and in job-index order — whether the job
// was set up with the world or injected after other timers were queued.
func arrivalSeq(ji int) int { return math.MinInt64/2 + ji }

func (e *engine) setup() {
	for ji, run := range e.runs {
		e.res.JobStart[ji] = run.Arrival
		e.addRun(ji, run)
	}
	e.jobsLeft = len(e.runs)
	if e.opt.Faults != nil {
		for _, cr := range e.opt.Faults.CrashEvents(e.nNodes) {
			e.seq++
			e.timers.push(timer{at: cr.At, seq: e.seq, kind: tNodeCrash, node: cr.Node, job: -1})
		}
		for w := 0; w < e.nNodes; w++ {
			if s := e.opt.Faults.NodeSlowdown(w); s > 1 {
				if e.nodeSlow == nil {
					e.nodeSlow = make([]float64, e.nNodes)
					for i := range e.nodeSlow {
						e.nodeSlow[i] = 1
					}
				}
				e.nodeSlow[w] = s
			}
		}
	}
	if e.opt.BlacklistAfter > 0 {
		e.faultCount = make([]int, e.nNodes)
		e.blacklisted = make([]bool, e.nNodes)
	}
}

// addRun wires job ji's stage states into the slab and arms its arrival
// timer. The per-job result and abort slots are the caller's: newEngine
// sizes them for the initial runs, Stepper.Inject grows them.
func (e *engine) addRun(ji int, run JobRun) {
	n := float64(e.nNodes)
	g := run.Job.Graph
	base := len(e.states)
	e.jobBase = append(e.jobBase, base)
	for i, sid := range g.StagesView() {
		p := run.Job.Profiles[sid]
		parents := g.ParentPos(i)
		e.states = append(e.states, stageState{
			key: skey{ji, sid},
			profile: profileView{
				perNodeIn:    float64(p.ShuffleIn) / n,
				perNodeOut:   float64(p.ShuffleOut) / n,
				procRate:     p.ProcRate,
				skew:         p.Skew,
				tasksPerNode: float64(p.Tasks) / n,
			},
			idx:         base + i,
			base:        base,
			children:    g.ChildPos(i),
			parents:     parents,
			parentsLeft: len(parents),
			tl:          StageTimeline{JobIndex: ji, Stage: sid},
		})
		st := &e.states[base+i]
		st.computeTot = st.profile.perNodeIn * n
	}
	if e.opt.AggShuffle {
		e.addAvailWeights(run, base)
	}
	e.stagesLeft = append(e.stagesLeft, g.Len())
	e.timers.push(timer{at: run.Arrival, seq: arrivalSeq(ji), kind: tJobArrival, job: ji})
}

// addAvailWeights appends the availability weights of the run whose
// stages start at slab index base: over each stage's parents,
// proportional to parent shuffle-output size (fallback: equal). Only
// prefetching reads them, so only AggShuffle runs build them.
func (e *engine) addAvailWeights(run JobRun, base int) {
	order := run.Job.Graph.StagesView()
	for i := base; i < len(e.states); i++ {
		st := &e.states[i]
		st.wOff = len(e.availW)
		tot := 0.0
		for _, p := range st.parents {
			tot += float64(run.Job.Profiles[order[p]].ShuffleOut)
		}
		for _, p := range st.parents {
			if tot > 0 {
				e.availW = append(e.availW, float64(run.Job.Profiles[order[p]].ShuffleOut)/tot)
			} else {
				e.availW = append(e.availW, 1/float64(len(st.parents)))
			}
		}
	}
}

// stateIdx returns the slab index of (job, stage), or -1 when the world
// has no such stage.
func (e *engine) stateIdx(k skey) int {
	if k.job < 0 || k.job >= len(e.jobBase) {
		return -1
	}
	p := e.runs[k.job].Job.Graph.Pos(k.stage)
	if p < 0 {
		return -1
	}
	return e.jobBase[k.job] + p
}

// placeNode maps a partition's home node to the machine that will run
// it: the home itself, or — when that machine is blacklisted — the next
// healthy node by index. With every node blacklisted the home is used
// anyway (a degraded machine beats no machine).
func (e *engine) placeNode(w int) int {
	if e.nBlacklisted == 0 || !e.blacklisted[w] {
		return w
	}
	for i := 1; i < e.nNodes; i++ {
		c := (w + i) % e.nNodes
		if !e.blacklisted[c] {
			return c
		}
	}
	return w
}

// noteFault records one machine-level fault (a task death or a crash)
// against a node and blacklists it at the configured budget.
func (e *engine) noteFault(w int) {
	if e.faultCount == nil || w < 0 || w >= e.nNodes {
		return
	}
	e.faultCount[w]++
	if e.faultCount[w] == e.opt.BlacklistAfter && !e.blacklisted[w] {
		e.blacklisted[w] = true
		e.nBlacklisted++
		e.res.Blacklisted++
		if o := e.opt.Observer; o != nil {
			o.OnEvent(Event{T: e.now, Kind: EvNodeBlacklisted, Job: -1, Stage: -1, Node: w})
		}
	}
}

// delayOf returns the configured submission delay of a stage.
func (e *engine) delayOf(k skey) float64 {
	d := e.runs[k.job].Delays
	if d == nil {
		return 0
	}
	return d[k.stage]
}

// markReady records stage readiness and schedules its (possibly delayed)
// submission.
func (e *engine) markReady(st *stageState) {
	if st.readyValid {
		return
	}
	st.readyValid = true
	st.tl.Ready = e.now
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvStageReady, Job: st.key.job, Stage: st.key.stage, Node: -1})
	}
	if st.submitted {
		// AggShuffle prefetch already created the read items; readiness
		// only unblocks compute (handled by parent-completion bookkeeping).
		return
	}
	d := e.delayOf(st.key)
	if st.hasOverride {
		d = st.delayOverride
	}
	st.submitAt = e.now + d
	e.pushTimer(st.submitAt, tSubmitStage, st.idx, st.key.job)
}

// submit creates the stage's read items on every node.
func (e *engine) submit(st *stageState, prefetch bool) {
	if st.submitted {
		return
	}
	st.submitted = true
	st.prefetched = prefetch
	if prefetch {
		st.computeTot = st.profile.perNodeIn * float64(e.nNodes) * (1 + e.opt.AggShuffleOverhead)
	}
	st.tl.Start = e.now
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvStageSubmitted, Job: st.key.job, Stage: st.key.stage, Node: -1, Prefetch: prefetch})
	}
	st.readsLeft = e.nNodes
	st.computeLeft = e.nNodes
	st.writesLeft = e.nNodes
	for w := 0; w < e.nNodes; w++ {
		vol := st.profile.perNodeIn
		if vol <= eps {
			// No network input: read completes immediately.
			e.finishRead(st, w)
			continue
		}
		it := e.newItem()
		*it = item{key: st.key, st: st.idx, home: w, node: e.placeNode(w), ph: phRead, remaining: vol, volume: vol, capped: prefetch}
		e.addItem(it)
	}
	if st.readsLeft == 0 {
		// all zero-volume
		st.tl.ReadEnd = e.now
	}
}

func (e *engine) finishRead(st *stageState, node int) {
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvReadDone, Job: st.key.job, Stage: st.key.stage, Node: node})
	}
	st.readsLeft--
	if st.readsLeft == 0 {
		st.tl.ReadEnd = e.now
		if e.opt.Watchdog != nil {
			e.applyDelayUpdates(e.opt.Watchdog.StageReadCompleted(WatchEvent{
				Job: st.key.job, Stage: st.key.stage, Timeline: st.tl,
				Retries: st.retries, JobStart: e.runs[st.key.job].Arrival, Now: e.now,
			}))
		}
	}
	if st.parentsLeft == 0 && st.recomputeHolds == 0 {
		e.startCompute(st, node)
	} else {
		st.pendingCompute = append(st.pendingCompute, node)
	}
}

// computeVol is the compute-phase volume of one partition of the stage.
func (e *engine) computeVol(st *stageState) float64 {
	vol := st.profile.perNodeIn
	if st.prefetched {
		// Proactive aggregation re-processes pushed partial outputs.
		vol *= 1 + e.opt.AggShuffleOverhead
	}
	return vol
}

func (e *engine) startCompute(st *stageState, node int) {
	vol := e.computeVol(st)
	if vol <= eps {
		e.finishCompute(st, node)
		return
	}
	it := e.newItem()
	*it = item{key: st.key, st: st.idx, home: node, node: e.placeNode(node), ph: phCompute, remaining: vol, volume: vol, attempt: 1}
	e.armCompute(it)
	e.addItem(it)
}

func (e *engine) finishCompute(st *stageState, node int) {
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvComputeDone, Job: st.key.job, Stage: st.key.stage, Node: node})
	}
	st.computeLeft--
	if st.computeLeft == 0 {
		st.tl.ComputeEnd = e.now
	}
	vol := st.profile.perNodeOut
	if vol <= eps {
		e.finishWrite(st, node)
		return
	}
	it := e.newItem()
	*it = item{key: st.key, st: st.idx, home: node, node: e.placeNode(node), ph: phWrite, remaining: vol, volume: vol}
	e.addItem(it)
}

func (e *engine) finishWrite(st *stageState, node int) {
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvWriteDone, Job: st.key.job, Stage: st.key.stage, Node: node})
	}
	st.writesLeft--
	if st.writesLeft > 0 {
		return
	}
	// Stage complete.
	st.complete = true
	st.computeDone = st.computeTot
	st.tl.End = e.now
	st.tl.Retries = st.retries
	e.res.Timelines = append(e.res.Timelines, st.tl)
	if e.now > e.res.JobEnd[st.key.job] {
		e.res.JobEnd[st.key.job] = e.now
	}
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvStageCompleted, Job: st.key.job, Stage: st.key.stage, Node: -1})
	}
	e.stagesLeft[st.key.job]--
	if e.stagesLeft[st.key.job] == 0 {
		e.jobsLeft--
		if o := e.opt.Observer; o != nil {
			o.OnEvent(Event{T: e.now, Kind: EvJobDone, Job: st.key.job, Stage: -1, Node: -1})
		}
	}
	if e.opt.Watchdog != nil {
		e.applyDelayUpdates(e.opt.Watchdog.StageCompleted(WatchEvent{
			Job: st.key.job, Stage: st.key.stage, Timeline: st.tl,
			Retries: st.retries, JobStart: e.runs[st.key.job].Arrival, Now: e.now,
		}))
	}
	for _, c := range st.children {
		cst := &e.states[st.base+c]
		cst.parentsLeft--
		if cst.parentsLeft == 0 {
			if cst.recomputeHolds == 0 {
				// Unblock any partitions that prefetched their input already.
				for _, w := range cst.pendingCompute {
					e.startCompute(cst, w)
				}
				cst.pendingCompute = nil
			}
			e.markReady(cst)
		}
	}
}

func (e *engine) fireTimer(t timer) {
	switch t.kind {
	case tJobArrival:
		// The job's roots, in insertion order.
		base := e.jobBase[t.job]
		for i := base; i < base+e.runs[t.job].Job.Graph.Len(); i++ {
			if len(e.states[i].parents) == 0 {
				e.markReady(&e.states[i])
			}
		}
	case tSubmitStage:
		st := &e.states[t.st]
		if e.failed[t.job] || st.submitted {
			return
		}
		if st.submitAt > e.now+eps {
			// A watchdog pushed the submission later; chase it.
			e.pushTimer(st.submitAt, tSubmitStage, t.st, t.job)
			return
		}
		e.submit(st, false)
	case tRecompute:
		// no-op; loop recomputes rates
	case tRetry:
		e.retryTask(t)
	case tNodeCrash:
		e.crashNode(t.node)
	}
}

// maybePrefetch creates AggShuffle prefetch read items for stages whose
// parents have all started computing, in slab — (job, insertion) — order.
func (e *engine) maybePrefetch() {
	if !e.opt.AggShuffle {
		return
	}
	for i := range e.states {
		st := &e.states[i]
		if st.submitted || len(st.parents) == 0 {
			continue
		}
		ok := true
		for _, p := range st.parents {
			pst := &e.states[st.base+p]
			if !pst.submitted && !pst.complete {
				ok = false
				break
			}
		}
		if ok {
			e.submit(st, true)
		}
	}
}

// availability returns A(t) ∈ [0,1] and dA/dt for a prefetched stage given
// current parent compute progress and the per-slab-index compute rates
// (nil when the caller needs no dA/dt).
func (e *engine) availability(st *stageState, computeRates []float64) (a, da float64) {
	for i, p := range st.parents {
		w := e.availW[st.wOff+i]
		pi := st.base + p
		pst := &e.states[pi]
		if pst.complete {
			a += w
			continue
		}
		if pst.computeTot <= eps {
			continue
		}
		prog := pst.computeDone / pst.computeTot
		s := pst.profile.skew
		if s < 1e-3 {
			// Homogeneous tasks: output lands only at completion.
			continue
		}
		ramp := (prog - (1 - s)) / s
		if ramp <= 0 {
			continue
		}
		if ramp >= 1 {
			a += w
			continue
		}
		a += w * ramp
		var rate float64
		if computeRates != nil {
			rate = computeRates[pi]
		}
		da += w * rate / (pst.computeTot * s)
	}
	if a > 1 {
		a = 1
	}
	return a, da
}

// computeRatesPass refreshes item rates on every dirty node. A node is
// dirty when its item set changed (add/remove) or — for the read phase —
// when it holds an availability-capped prefetch item, whose demand cap
// moves with its parents' compute progress every event. Clean nodes keep
// their previous rates: those are a pure function of the node's unchanged
// consumer set, so skipping the recomputation is exact, not approximate.
func (e *engine) computeRatesPass() {
	// 1. Compute-phase rates: executors on a node are split equally among
	//    the stages computing there (per job first if FairByJob).
	for w := 0; w < e.nNodes; w++ {
		if e.dirtyC[w] {
			e.computeNodeRates(w)
			e.dirtyC[w] = false
		}
	}
	// 2. Read-phase rates: max-min (water-filling) over each node's NIC,
	//    demands limited by prefetch availability. Per-stage total compute
	//    rates (for availability derivatives) are only assembled when a
	//    capped item actually needs them — i.e. never in non-AggShuffle
	//    runs.
	var stageRates []float64
	for w := 0; w < e.nNodes; w++ {
		if !e.dirtyR[w] {
			for _, it := range e.readBk[w] {
				if it.capped {
					e.dirtyR[w] = true
					break
				}
			}
		}
		if e.dirtyR[w] && stageRates == nil {
			for _, it := range e.readBk[w] {
				if it.capped && e.states[it.st].parentsLeft > 0 {
					stageRates = e.stageComputeRates()
					break
				}
			}
		}
	}
	for w := 0; w < e.nNodes; w++ {
		if e.dirtyR[w] {
			e.readNodeRates(w, stageRates)
			e.dirtyR[w] = false
		}
	}
	// 3. Write-phase rates: equal split of the node's disk bandwidth.
	for w := 0; w < e.nNodes; w++ {
		if e.dirtyW[w] {
			its := e.writeBk[w]
			if len(its) > 0 {
				capBW := e.diskBW[w]
				if s := e.nodeSlowdown(w); s > 1 {
					capBW /= s
				}
				shares := e.fairShares(its, capBW)
				for i, it := range its {
					it.rate = shares[i]
				}
			}
			e.dirtyW[w] = false
		}
	}
}

// computeNodeRates refreshes the executor shares of one node's compute
// items.
func (e *engine) computeNodeRates(w int) {
	its := e.computeBk[w]
	if len(its) == 0 {
		return
	}
	// Nominal executor shares (no contention loss), then the cap: a
	// stage cannot occupy more executors than it has tasks. The
	// contention factor degrades throughput, not occupancy.
	shares := e.fairSharesNominal(its, e.execs[w])
	cf := e.contended(1, len(its))
	nodeCF := e.nodeSlowdown(w)
	for i, it := range its {
		st := &e.states[it.st]
		share := shares[i]
		if tpn := st.profile.tasksPerNode; tpn > 0 && share > tpn {
			share = tpn
		}
		it.execUsed = share
		it.rate = share * st.profile.procRate * cf
		if it.slow > 1 {
			it.rate /= it.slow
		}
		if nodeCF > 1 {
			it.rate /= nodeCF
		}
	}
}

// nodeSlowdown is node w's persistent rate degradation (1 = healthy).
// Guarding divisions with > 1 keeps the healthy path bit-identical to
// the pre-fault-domain engine.
func (e *engine) nodeSlowdown(w int) float64 {
	if e.nodeSlow == nil {
		return 1
	}
	return e.nodeSlow[w]
}

// stageComputeRates sums every stage's total compute rate across nodes
// into a per-slab-index scratch, in node-then-bucket order — the same
// accumulation order the pre-dirty engine used, so availability
// derivatives stay bit-identical.
func (e *engine) stageComputeRates() []float64 {
	r := resizeF64(&e.stageRates, len(e.states))
	for w := 0; w < e.nNodes; w++ {
		for _, it := range e.computeBk[w] {
			r[it.st] += it.rate
		}
	}
	return r
}

// readNodeRates water-fills one node's NIC among its read items.
func (e *engine) readNodeRates(w int, stageRates []float64) {
	its := e.readBk[w]
	if len(its) == 0 {
		return
	}
	demands := resizeF64(&e.demandScratch, len(its))
	for i, it := range its {
		demands[i] = math.Inf(1)
		it.capRate = 0
		if it.capped {
			st := &e.states[it.st]
			if st.parentsLeft > 0 {
				a, da := e.availability(st, stageRates)
				capVol := it.volume * a
				it.capRate = it.volume * da
				if it.done >= capVol-availEps {
					// No backlog: limited to the production rate.
					demands[i] = it.capRate
				}
			} else {
				it.capped = false // parents finished; cap lifted
			}
		}
	}
	var weights []float64
	if e.opt.FairByJob {
		weights = e.jobWeights(its)
	}
	// Only items that can actually flow count toward the contention
	// penalty: an availability-starved prefetch (demand ≈ 0) holds no
	// connections worth a sharing overhead.
	nEff := 0
	for _, d := range demands {
		if d > 1 {
			nEff++
		}
	}
	capBW := e.netBW[w]
	if s := e.nodeSlowdown(w); s > 1 {
		capBW /= s
	}
	alloc := resizeF64(&e.wfAlloc, len(its))
	e.wfActive = waterFillInto(alloc, e.wfActive[:0], e.contended(capBW, nEff), demands, weights)
	for i, it := range its {
		it.rate = alloc[i]
	}
}

// resizeF64 grows (or shrinks) a scratch slice to n elements, zeroed.
func resizeF64(s *[]float64, n int) []float64 {
	v := *s
	if cap(v) < n {
		v = make([]float64, n)
	} else {
		v = v[:n]
		for i := range v {
			v[i] = 0
		}
	}
	*s = v
	return v
}

// contended scales a resource's capacity by the sharing-efficiency loss:
// f concurrent consumers see C/(1+α·min(f−1, 4)). The penalty saturates —
// interference (incast, seeks, stragglers) is mostly pairwise, and an
// unbounded linear loss would make aggregate throughput collapse under
// high multi-job concurrency, destabilizing trace replays.
func (e *engine) contended(capacity float64, n int) float64 {
	if n <= 1 {
		return capacity
	}
	extra := float64(n - 1)
	if extra > contentionSaturation {
		extra = contentionSaturation
	}
	return capacity / (1 + e.opt.ContentionOverhead*extra)
}

// contentionSaturation caps the effective number of interfering extra
// consumers in the sharing-overhead model.
const contentionSaturation = 4

// fairShares splits capacity among items with the contention loss applied:
// equally, or per-job first when FairByJob is set.
func (e *engine) fairShares(its []*item, capacity float64) []float64 {
	return e.fairSharesNominal(its, e.contended(capacity, len(its)))
}

// fairSharesNominal splits capacity without the contention loss. The
// returned slice is the engine's share scratch — valid until the next
// fairShares/fairSharesNominal call.
func (e *engine) fairSharesNominal(its []*item, capacity float64) []float64 {
	out := resizeF64(&e.shareScratch, len(its))
	if !e.opt.FairByJob {
		s := capacity / float64(len(its))
		for i := range out {
			out[i] = s
		}
		return out
	}
	perJob := e.perJobScratch
	clear(perJob)
	for _, it := range its {
		perJob[it.key.job]++
	}
	jobShare := capacity / float64(len(perJob))
	for i, it := range its {
		out[i] = jobShare / float64(perJob[it.key.job])
	}
	return out
}

// jobWeights returns water-filling weights implementing job-first fairness.
// The returned slice is the engine's weight scratch.
func (e *engine) jobWeights(its []*item) []float64 {
	perJob := e.perJobScratch
	clear(perJob)
	for _, it := range its {
		perJob[it.key.job]++
	}
	nJobs := float64(len(perJob))
	w := resizeF64(&e.weightScratch, len(its))
	for i, it := range its {
		w[i] = 1 / (nJobs * float64(perJob[it.key.job]))
	}
	return w
}

// nextDT returns the time to the next item event (completion or
// availability catch-up), or +Inf.
func (e *engine) nextDT() float64 {
	dt := math.Inf(1)
	for _, it := range e.items {
		if it.rate > eps {
			if d := it.remaining / it.rate; d < dt {
				dt = d
			}
			if it.failAt > 0 {
				// Time until this doomed attempt dies.
				if d := (it.failAt - (it.volume - it.remaining)) / it.rate; d < dt {
					dt = d
				}
			}
		}
		if it.capped && it.ph == phRead {
			st := &e.states[it.st]
			if st.parentsLeft > 0 {
				a, _ := e.availability(st, nil) // da not needed here
				capVol := it.volume * a
				backlog := capVol - it.done
				// Catch-up events below a byte of backlog are noise: with
				// many heterogeneous nodes they degenerate into an event
				// storm of ever-smaller dt.
				if backlog > availEps && it.rate > it.capRate+eps {
					if d := backlog / (it.rate - it.capRate); d < dt {
						dt = d
					}
				}
			}
		}
	}
	return dt
}

// emitShares publishes one ShareSample per live item for the interval
// [e.now, e.now+dt) on which rates are constant. Only called when the
// observer implements ShareObserver; the scratch slice is reused across
// intervals so the steady state stays allocation-free.
func (e *engine) emitShares(dt float64) {
	s := e.shareScr[:0]
	for _, it := range e.items {
		var res Resource
		var iso float64
		switch it.ph {
		case phRead:
			res, iso = ResNet, e.netBW[it.node]
		case phCompute:
			res = ResCPU
			ex := e.execs[it.node]
			prof := &e.states[it.st].profile
			if tpn := prof.tasksPerNode; tpn > 0 && ex > tpn {
				ex = tpn
			}
			iso = ex * prof.procRate
			if it.slow > 1 {
				iso /= it.slow
			}
		case phWrite:
			res, iso = ResDisk, e.diskBW[it.node]
		}
		if s := e.nodeSlowdown(it.node); s > 1 {
			iso /= s
		}
		s = append(s, ShareSample{Job: it.key.job, Stage: it.key.stage,
			Node: it.node, Res: res, Rate: it.rate, IsoRate: iso})
	}
	e.shareScr = s
	e.shareObs.OnShares(e.now, dt, s)
}

// advance progresses every item by dt and accumulates usage integrals.
func (e *engine) advance(dt float64) {
	if dt <= 0 {
		return
	}
	if e.shareObs != nil {
		e.emitShares(dt)
	}
	e.recordUsage(dt)
	for _, it := range e.items {
		p := it.rate * dt
		it.remaining -= p
		if it.capped {
			it.done += p
		}
		if it.ph == phCompute && !it.recompute {
			e.states[it.st].computeDone += p
		}
	}
	e.now += dt
}

// recordUsage integrates resource usage over the next dt seconds (rates
// are constant until then) and extends the tracked series.
func (e *engine) recordUsage(dt float64) {
	var trackNet, trackDisk, trackCPUBusy float64
	var totNet, totDisk, totBusyExec float64
	busyExecs := e.busyScratch
	for i := range busyExecs {
		busyExecs[i] = 0
	}
	for _, it := range e.items {
		switch it.ph {
		case phRead:
			e.netBytesInt += it.rate * dt
			totNet += it.rate
			if it.node == e.opt.TrackNode {
				trackNet += it.rate
			}
		case phWrite:
			e.diskBytesInt += it.rate * dt
			totDisk += it.rate
			if it.node == e.opt.TrackNode {
				trackDisk += it.rate
			}
		case phCompute:
			busyExecs[it.node] += it.execUsed
		}
	}
	for w, busy := range busyExecs {
		if busy > e.execs[w] {
			busy = e.execs[w]
		}
		if busy > 0 {
			e.cpuBusyInt += busy * dt
			totBusyExec += busy
			if w == e.opt.TrackNode {
				trackCPUBusy = busy / e.execs[w]
			}
		}
	}
	if e.opt.TrackNode >= 0 && e.opt.TrackNode < e.nNodes {
		e.res.Node.CPUBusy = appendStep(e.res.Node.CPUBusy, e.now, trackCPUBusy)
		e.res.Node.NetRate = appendStep(e.res.Node.NetRate, e.now, trackNet)
		e.res.Node.DiskRate = appendStep(e.res.Node.DiskRate, e.now, trackDisk)
	}
	if e.opt.TrackCluster {
		e.res.Cluster.CPUBusy = appendStep(e.res.Cluster.CPUBusy, e.now, totBusyExec/e.totalExec)
		e.res.Cluster.NetRate = appendStep(e.res.Cluster.NetRate, e.now, totNet)
		e.res.Cluster.DiskRate = appendStep(e.res.Cluster.DiskRate, e.now, totDisk)
	}
	if e.opt.TrackOccupancy {
		e.recordOccupancy(dt)
	}
}

// appendStep appends (t,v) unless the last sample already has value v.
func appendStep(s Series, t, v float64) Series {
	if n := len(s); n > 0 && math.Abs(s[n-1].V-v) < 1e-12 {
		return s
	}
	return append(s, Sample{T: t, V: v})
}

// recordOccupancy tracks executors held per stage (read + compute phases
// hold slots, as Spark tasks do while shuffle-reading).
func (e *engine) recordOccupancy(dt float64) {
	holders := make(map[skey]map[int]bool) // stage → nodes holding slots
	perNode := make([]int, e.nNodes)       // stages holding slots per node
	for _, it := range e.items {
		if it.ph == phWrite {
			continue
		}
		m := holders[it.key]
		if m == nil {
			m = make(map[int]bool)
			holders[it.key] = m
		}
		if !m[it.node] {
			m[it.node] = true
			perNode[it.node]++
		}
	}
	occ := make(map[skey]float64, len(holders))
	var ws []int
	for k, nodes := range holders {
		// Sum the shares in node order: float addition does not
		// associate, so map order would vary the low bits run to run.
		ws = ws[:0]
		for w := range nodes {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		for _, w := range ws {
			occ[k] += e.execs[w] / float64(perNode[w])
		}
	}
	// Close segments that changed, in key order (a mid-run snapshot
	// encodes the closed segments in append order), then open new ones.
	ks := make([]skey, 0, len(e.occOpen))
	for k := range e.occOpen {
		ks = append(ks, k)
	}
	sortSkeys(ks)
	for _, k := range ks {
		seg := e.occOpen[k]
		if nv, ok := occ[k]; !ok || math.Abs(nv-seg.Executors) > 1e-9 {
			seg.To = e.now
			if seg.To > seg.From {
				e.res.Occupancy = append(e.res.Occupancy, *seg)
			}
			delete(e.occOpen, k)
		}
	}
	for k, v := range occ {
		if _, open := e.occOpen[k]; !open {
			e.occOpen[k] = &OccupancySegment{JobIndex: k.job, Stage: k.stage, From: e.now, Executors: v}
		}
	}
}

// itemOrder is the deterministic transition order: by key then phase/node.
// sortItems orders an item slice by itemOrder with a typed insertion
// sort. The per-event done/dead sets are tiny, so sort.Slice's reflection
// setup dominated the actual comparisons; insertion sort is stable, which
// can only preserve MORE of the e.items order than the unstable sort did
// (itemOrder is a total order on live items, so ties do not occur).
func sortItems(its []*item) {
	for i := 1; i < len(its); i++ {
		it := its[i]
		j := i - 1
		for j >= 0 && itemOrder(it, its[j]) {
			its[j+1] = its[j]
			j--
		}
		its[j+1] = it
	}
}

func itemOrder(a, b *item) bool {
	if a.key.job != b.key.job {
		return a.key.job < b.key.job
	}
	if a.key.stage != b.key.stage {
		return a.key.stage < b.key.stage
	}
	if a.ph != b.ph {
		return a.ph < b.ph
	}
	if a.node != b.node {
		return a.node < b.node
	}
	if a.home != b.home {
		// Blacklist rerouting can place two partitions on one machine;
		// the logical partition index breaks the tie.
		return a.home < b.home
	}
	// A speculative clone shares (key, ph, home) with its rival but runs
	// on a different node, so reaching here means a == b in order terms;
	// originals sort before clones for definiteness.
	return !a.spec && b.spec
}

// removeDone drops completed and freshly-failed items and fires their
// transitions.
func (e *engine) removeDone() {
	kept := e.items[:0]
	done, dead := e.doneScratch[:0], e.deadScratch[:0]
	for _, it := range e.items {
		switch {
		case it.remaining <= eps:
			done = append(done, it)
			e.bucketRemove(it)
		case it.failAt > 0 && it.volume-it.remaining >= it.failAt-eps:
			dead = append(dead, it)
			e.bucketRemove(it)
		default:
			kept = append(kept, it)
		}
	}
	e.items = kept
	e.doneScratch, e.deadScratch = done, dead
	sortItems(done)
	for _, it := range done {
		if it.cancelled || e.failed[it.key.job] {
			continue
		}
		if r := it.rival; r != nil {
			// First finisher wins the speculation race; the loser is
			// cancelled on the spot (deterministic: done items fire in
			// itemOrder, and a same-event twin is skipped as cancelled).
			it.rival, r.rival = nil, nil
			r.cancelled = true
			e.unlink(r)
			e.res.SpecWins++
			if o := e.opt.Observer; o != nil {
				o.OnEvent(Event{T: e.now, Kind: EvSpecWin, Job: it.key.job, Stage: it.key.stage,
					Node: it.node, Attempt: it.attempt})
			}
		}
		st := &e.states[it.st]
		if e.opt.Speculation && it.ph == phCompute && !it.recompute {
			st.compDurs = append(st.compDurs, e.now-it.startAt)
		}
		if it.recompute {
			e.finishRecompute(it)
			continue
		}
		switch it.ph {
		case phRead:
			e.finishRead(st, it.home)
		case phCompute:
			e.finishCompute(st, it.home)
		case phWrite:
			e.finishWrite(st, it.home)
		}
	}
	sortItems(dead)
	for _, it := range dead {
		if it.cancelled {
			continue
		}
		e.noteFault(it.node)
		if r := it.rival; r != nil {
			// The twin is still running: fold this death into the race
			// instead of re-queuing (speculation absorbed the fault).
			it.rival, r.rival = nil, nil
			continue
		}
		e.taskFailed(it)
	}
	// All transitions fired; the removed items hold no live references.
	for _, it := range done {
		e.freeItem(it)
	}
	for _, it := range dead {
		e.freeItem(it)
	}
	e.doneScratch = e.doneScratch[:0]
	e.deadScratch = e.deadScratch[:0]
	if e.opt.Speculation {
		e.maybeSpeculate()
	}
}

// unlink removes a cancelled speculation loser from the live set. When
// the loser completed or died in the same event batch it is no longer in
// e.items — its scratch entry then carries the cancelled flag and is
// skipped (and freed) by the batch loops instead.
func (e *engine) unlink(r *item) {
	for i, it := range e.items {
		if it == r {
			e.items = append(e.items[:i], e.items[i+1:]...)
			e.bucketRemove(r)
			e.freeItem(r)
			return
		}
	}
}

// maybeSpeculate scans running compute partitions after each event batch:
// once at least half of a stage's partitions have finished computing, a
// partition whose projected total duration exceeds the threshold multiple
// of the finished median gets one clone on the best healthy node.
func (e *engine) maybeSpeculate() {
	for _, it := range e.items {
		if it.ph != phCompute || it.recompute || it.spec || it.rival != nil || it.cancelled {
			continue
		}
		st := &e.states[it.st]
		if st.specDone[it.home] || len(st.compDurs)*2 < e.nNodes {
			continue
		}
		if it.rate <= eps || e.now <= it.startAt {
			continue
		}
		med := e.medianDur(st.compDurs)
		proj := (e.now - it.startAt) + it.remaining/it.rate
		if med <= 0 || proj <= e.opt.SpeculationThreshold*med {
			continue
		}
		e.launchSpec(it)
	}
}

// medianDur is the lower median of the recorded durations (scratch-based,
// deterministic).
func (e *engine) medianDur(ds []float64) float64 {
	s := resizeF64(&e.medScratch, len(ds))
	copy(s, ds)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// launchSpec clones a lagging compute partition onto the target node.
// The clone restarts the partition's full volume (Spark speculation does
// not migrate partial state); original and clone race, first finisher
// wins. The partition is marked so it is never cloned twice.
func (e *engine) launchSpec(it *item) {
	st := &e.states[it.st]
	if st.specDone == nil {
		st.specDone = make(map[int]bool)
	}
	st.specDone[it.home] = true
	tgt := e.specTarget(it)
	if tgt < 0 {
		return
	}
	cl := e.newItem()
	*cl = item{key: it.key, st: it.st, home: it.home, node: tgt, ph: phCompute,
		remaining: it.volume, volume: it.volume, attempt: it.attempt, spec: true}
	e.armCompute(cl)
	cl.rival = it
	it.rival = cl
	e.addItem(cl)
	e.res.SpecLaunched++
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvSpecLaunched, Job: it.key.job, Stage: it.key.stage,
			Node: tgt, Attempt: it.attempt})
	}
}

// specTarget picks the clone's machine: never the laggard's own node or a
// blacklisted one, preferring healthy (non-slow) nodes, then the smallest
// compute load, then the lowest index (the deterministic tie-break).
func (e *engine) specTarget(it *item) int {
	best, bestLoad, bestSlow := -1, 0, false
	for w := 0; w < e.nNodes; w++ {
		if w == it.node || (e.blacklisted != nil && e.blacklisted[w]) {
			continue
		}
		slow := e.nodeSlowdown(w) > 1
		load := len(e.computeBk[w])
		if best < 0 || (bestSlow && !slow) || (slow == bestSlow && load < bestLoad) {
			best, bestLoad, bestSlow = w, load, slow
		}
	}
	return best
}

func (e *engine) run() (*Result, error) {
	e.setup()
	if err := e.loop(); err != nil {
		return nil, err
	}
	e.finalize()
	return e.res, nil
}

// loop is the event loop proper (post-setup, pre-finalize). With haltSet it
// returns early — halted=true — at the event boundary just before simulated
// time reaches haltAt; re-entering loop on (a clone of) the halted engine
// continues the run as if it had never stopped: the loop-top timer scan,
// maybePrefetch and the rates pass are all idempotent at a boundary, so the
// resumed trajectory is bit-identical to an uninterrupted one.
func (e *engine) loop() error {
	for {
		done, err := e.step()
		if err != nil || done {
			return err
		}
	}
}

// step runs exactly one event-loop iteration: fire every timer due now,
// then make one rates-pass-and-advance (or halt, or detect completion).
// It is the loop body of loop(), extracted verbatim so external drivers —
// the Stepper primitives and the shard runner built on them — interleave
// engines at event granularity with zero behavior change: a run stepped to
// completion is bit-identical to Run.
//
// step returns done=true when the run finished (or halted at the haltSet
// boundary); calling it again on a finished engine is a harmless no-op
// that reports done again. Any error is terminal.
func (e *engine) step() (done bool, err error) {
	// Fire all timers due now.
	for len(e.timers) > 0 && e.timers[0].at <= e.now+eps {
		if e.haltSet {
			// The timer would fire at max(now, at) — the same clock
			// value fireTimer runs under. Stop before popping it if
			// that lands at or past the halt time.
			eff := e.timers[0].at
			if eff < e.now {
				eff = e.now
			}
			if eff >= e.haltAt {
				e.halted = true
				return true, nil
			}
		}
		t := e.timers.pop()
		if t.at > e.now {
			e.now = t.at
		}
		e.fireTimer(t)
	}
	if e.haltInject && e.haltAt <= e.now+eps {
		// An arrival at haltAt is due: it would fire here, before the
		// prefetch pass.
		e.halted = true
		return true, nil
	}
	e.maybePrefetch()
	// Stop when nothing remains — or when every job has completed or
	// failed (leftover crash/retry timers no longer matter).
	if len(e.items) == 0 && len(e.timers) == 0 {
		return true, nil
	}
	if e.jobsLeft == 0 {
		return true, nil
	}
	e.computeRatesPass()
	dt := e.nextDT()
	if len(e.timers) > 0 {
		if d := e.timers[0].at - e.now; d < dt {
			dt = d
		}
	}
	if math.IsInf(dt, 1) {
		return false, fmt.Errorf("sim: deadlock at t=%.3f with %d items", e.now, len(e.items))
	}
	if dt < minDT {
		dt = minDT
	}
	if e.haltSet && e.now+dt >= e.haltAt {
		// The same floating-point expression advance would store into
		// e.now: halting here leaves the engine exactly one advance
		// short of the halt time, at a clean pre-advance boundary.
		e.halted = true
		return true, nil
	}
	e.advance(dt)
	e.removeDone()
	e.res.Events++
	if e.now > e.opt.MaxTime {
		return false, fmt.Errorf("sim: exceeded MaxTime %.0fs", e.opt.MaxTime)
	}
	if e.res.Events > 5_000_000 {
		return false, fmt.Errorf("sim: event limit exceeded at t=%.3f with %d items", e.now, len(e.items))
	}
	return false, nil
}

// peekNextEventTime prices the next event without committing to it: the
// simulated time step would advance the clock to if called now, +Inf when
// the engine is drained. It only performs mutations that are idempotent at
// an event boundary — the same maybePrefetch/computeRatesPass pair the
// snapshot machinery relies on when re-entering loop — so peek-then-step
// is bit-identical to step alone, and peeking adds no persistent engine
// state (nothing for the clone or the persist codec to carry).
//
// A due timer is priced at max(now, timer) without being fired; a state
// step() would report as deadlocked is priced at now, so a merging clock
// drains the engine promptly and step() surfaces the error.
func (e *engine) peekNextEventTime() float64 {
	if e.jobsLeft == 0 || (len(e.items) == 0 && len(e.timers) == 0) {
		// step() completes immediately from here (leftover crash/retry
		// timers in the future are never waited for): price it at now.
		return e.now
	}
	if len(e.timers) > 0 && e.timers[0].at <= e.now+eps {
		if t := e.timers[0].at; t > e.now {
			return t
		}
		return e.now
	}
	e.maybePrefetch()
	e.computeRatesPass()
	dt := e.nextDT()
	if len(e.timers) > 0 {
		if d := e.timers[0].at - e.now; d < dt {
			dt = d
		}
	}
	if math.IsInf(dt, 1) {
		// Deadlock: report "ready now" so the caller steps this engine
		// next and the step returns the descriptive error.
		return e.now
	}
	if dt < minDT {
		dt = minDT
	}
	return e.now + dt
}

func (e *engine) finalize() {
	// Close open occupancy segments.
	for _, seg := range e.occOpen {
		seg.To = e.now
		if seg.To > seg.From {
			e.res.Occupancy = append(e.res.Occupancy, *seg)
		}
	}
	clear(e.occOpen)
	// Segments are closed in map order; the job tie-break makes the
	// multi-job order deterministic too.
	slices.SortFunc(e.res.Occupancy, func(a, b OccupancySegment) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Stage, b.Stage); c != 0 {
			return c
		}
		return cmp.Compare(a.JobIndex, b.JobIndex)
	})
	start := math.Inf(1)
	for _, r := range e.runs {
		if r.Arrival < start {
			start = r.Arrival
		}
	}
	end := 0.0
	for _, t := range e.res.JobEnd {
		if t > end {
			end = t
		}
	}
	e.res.Makespan = end - start
	if e.res.Makespan > 0 {
		e.res.AvgCPUUtil = e.cpuBusyInt / (e.totalExec * e.res.Makespan)
		e.res.AvgNetUtil = e.netBytesInt / (e.totalNet * e.res.Makespan)
		e.res.AvgDiskUtil = e.diskBytesInt / (e.totalDisk * e.res.Makespan)
		e.res.AvgNetRate = e.netBytesInt / e.res.Makespan
	}
	// Terminate tracked series with a final zero sample at makespan end.
	if e.opt.TrackNode >= 0 && e.opt.TrackNode < e.nNodes {
		e.res.Node.CPUBusy = appendStep(e.res.Node.CPUBusy, e.now, 0)
		e.res.Node.NetRate = appendStep(e.res.Node.NetRate, e.now, 0)
		e.res.Node.DiskRate = appendStep(e.res.Node.DiskRate, e.now, 0)
	}
	// (JobIndex, Stage) keys are unique, so any sort gives this order.
	slices.SortFunc(e.res.Timelines, func(a, b StageTimeline) int {
		if c := cmp.Compare(a.JobIndex, b.JobIndex); c != 0 {
			return c
		}
		return cmp.Compare(a.Stage, b.Stage)
	})
}
