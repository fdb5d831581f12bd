package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
	// aggShuffleOverhead inflates the compute volume of prefetched stages:
	// proactive aggregation re-processes pushed partials (the paper
	// observes LDA stages getting slower under AggShuffle).
	aggShuffleOverhead = 0.02
	// retryBackoff is the base of the exponential retry backoff: attempt
	// n+1 starts retryBackoff·2^(n−1) seconds after attempt n failed.
	retryBackoff = 2.0
)

// The contention model, shared with the analytic model (perfmodel) and
// the attribution report (attr) so they cannot drift from the engine.
const (
	// MinEventStep floors the event step; progress below it is advanced
	// anyway so pathological rate oscillations cannot stall simulated
	// time. Each event may so end up to MinEventStep later than the exact
	// fluid timeline.
	MinEventStep = 1e-6
	// ContentionSaturation caps the effective number of interfering
	// extra consumers: interference (incast, seeks, stragglers) is mostly
	// pairwise, and an unbounded linear loss would make aggregate
	// throughput collapse under high multi-job concurrency.
	ContentionSaturation = 4
	// DefaultContentionOverhead is Options.ContentionOverhead's default α.
	DefaultContentionOverhead = 0.22
)

// ContentionFactor is the sharing-efficiency loss 1 + α·min(extra,
// ContentionSaturation) of a resource with extra consumers beyond the
// first: each of f consumers sees capacity C/(f·ContentionFactor(α, f−1)).
func ContentionFactor(alpha, extra float64) float64 {
	return 1 + float64(alpha*min(extra, ContentionSaturation))
}

// ContentionAlpha resolves Options.ContentionOverhead's sentinels: zero
// means DefaultContentionOverhead, negative means 0 (the pure fluid
// model).
func ContentionAlpha(overhead float64) float64 {
	switch {
	case overhead == 0:
		return DefaultContentionOverhead
	case overhead < 0:
		return 0
	}
	return overhead
}

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

// stageInfo is the half of a (job, stage)'s state that addRun wires once
// and nothing writes again; a world and all its forks share it
// (stageTable). The other half, stageState, is what the event loop
// writes. Each half lives in a slab with one entry per stage, in (job,
// insertion) order: job j's stage s sits at jobBase[j] + Graph.Pos(s) in
// both. Stages refer to each other by slab index, never by pointer, so
// neither slab needs rewiring.
type stageInfo struct {
	key     skey
	profile profileView

	// idx is the stage's own slab index, base the slab index of its
	// job's first stage. children and parents are the graph's shared,
	// read-only position lists (dag.Graph.ChildPos/ParentPos): base+p is
	// a relative's slab index. wOff is where the stage's input weights
	// over its parents start in engine.inW (AggShuffle and placed runs
	// only). node is the stage's node when its run is placed, -1 when it
	// runs a partition on every node.
	idx      int
	base     int
	children []int
	parents  []int
	wOff     int
	node     int

	// off marks a stage its run's Active mask leaves out. Its active
	// children do not count it as a parent, and its own parentsLeft
	// starts at zero, so completing parents only drive it negative: it
	// never becomes ready.
	off bool
}

// stageState tracks one (job, stage) through its lifecycle: the counters,
// flags and times the event loop writes. It is pointer-free, so a fork
// copies the slab as one block. The per-stage lists only AggShuffle,
// fault and speculation runs keep live in the engine's side tables
// (pending, compDurs, specDone), keyed by slab index.
type stageState struct {
	parentsLeft int

	readsLeft   int
	computeLeft int
	writesLeft  int

	// retries counts failed partition attempts (faults only).
	retries int
	// recomputeHolds > 0 blocks compute starts while a crashed parent's
	// shuffle output is being recomputed (lineage recovery).
	recomputeHolds int

	computeDone float64
	computeTot  float64

	// submitAt is the authoritative submission time once ready; a
	// watchdog may move it (tSubmitStage re-schedules itself until now ≥
	// submitAt).
	submitAt float64
	// delayOverride, when hasOverride is set, replaces the run's
	// configured delay (a watchdog or Fork revision that arrived before
	// the stage became ready).
	delayOverride float64

	tl stageTimes

	submitted  bool // read items created
	prefetched bool // read items were created as an AggShuffle prefetch
	// readyValid marks tl.ready as set.
	readyValid  bool
	complete    bool
	hasOverride bool
}

// stageTimes is the mutable part of a stage's StageTimeline: its
// milestones and, once it completes, its retry count.
type stageTimes struct {
	ready, start, readEnd, computeEnd, end float64
	retries                                int
}

// timeline assembles the stage's StageTimeline from its two slabs.
func (e *engine) timeline(si int) StageTimeline {
	k, t := e.info[si].key, &e.states[si].tl
	return StageTimeline{JobIndex: k.job, Stage: k.stage, Ready: t.ready, Start: t.start,
		ReadEnd: t.readEnd, ComputeEnd: t.computeEnd, End: t.end, Retries: t.retries}
}

// stageTable is the stage-info slab of one world, shared by the world and
// every fork of it. refs counts the engines holding it. An engine appends
// to the slab (addRun) only while it is the sole holder; otherwise it
// first copies the slab into a table of its own, so an Inject into a fork
// or into its parent never writes what the other reads. The last engine
// to let go hands the table to tablePool, whose tables the next worlds
// fill.
type stageTable struct {
	refs atomic.Int32
	info []stageInfo
}

// tablePool recycles the stage tables no engine holds any more, cleared.
var tablePool sync.Pool

// partKey names one partition of a stage: its slab index and home node.
type partKey struct{ st, home int }

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
	// computeSec is one partition's solo compute work in executor-seconds,
	// the unit of the live Σ JCT bound (bound.go).
	computeSec float64
}

// timer is a scheduled engine event. Its indices are int32 so a timer
// packs into 40 bytes: the heap sifts timers by value, and every byte of
// a timer is copied at each level of every push and pop.
type timer struct {
	at  float64
	seq int
	st  int32 // slab index of the stage (tSubmitStage, tRetry only)
	job int32
	// retry payload (tRetry only); home is the logical partition, node
	// the machine the dead attempt ran on.
	node    int32
	home    int32
	attempt int32
	kind    timerKind
	ph      phase
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
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest timer.
func (h *timerHeap) pop() timer {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	*h = s[:n]
	h.down(0)
	return top
}

// fix restores the heap order after the timer at index i changed its
// time.
func (h timerHeap) fix(i int) {
	if h.up(i) == i {
		h.down(i)
	}
}

// up sifts the timer at index i toward the root and returns where it
// settles.
func (h timerHeap) up(i int) int {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return i
}

// down sifts the timer at index i toward the leaves.
func (h timerHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].before(h[least]) {
			least = l
		}
		if r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

type engine struct {
	// engineRun is the per-run state, zero in a new engine and in a
	// pooled one (release zeroes it).
	engineRun
	// engineBufs holds the state slab, items, timers, buckets and
	// scratch: every buffer a pooled engine reuses.
	engineBufs
}

// engineRun is the engine's per-run state. Every field starts at its zero
// value.
type engineRun struct {
	opt  Options
	runs []JobRun

	nNodes                         int
	totalExec, totalNet, totalDisk float64

	// tab is the shared stage-info slab and info its entries: the
	// immutable half of every stage's state (stageInfo).
	tab  *stageTable
	info []stageInfo

	seq int
	now float64

	// res is the run's result in progress. Its per-job slots live in the
	// pooled jobStart/jobEnd/jobErrs buffers until result copies them out.
	res Result

	// usage integration
	cpuBusyInt   float64 // executor-seconds busy, cluster-wide
	netBytesInt  float64
	diskBytesInt float64
	// answerOnly marks the engine of an answer-only world
	// (Stepper.AnswerOnly): a what-if world, or one DrainJCTSum is
	// draining. It retires without finalize, so advance skips the usage
	// integrals and the tracked series, which only finalize reads; it
	// keeps the live Σ JCT bound instead (bound.go). clone carries it to
	// forks; newEngine and release clear it.
	answerOnly bool

	// fault / recovery state
	jobsLeft int // jobs neither complete nor failed
	// tripped[j] marks a job whose Watchdog tripped; allocated by the
	// first watch.
	tripped []bool

	// Machine health. nodeSlow[w] > 1 divides every phase rate on node w
	// (persistent slow machine); nil when every node is healthy, so the
	// fault-free fast path stays untouched. faultCount / blacklisted /
	// nBlacklisted exist only when BlacklistAfter > 0.
	nodeSlow     []float64
	faultCount   []int
	blacklisted  []bool
	nBlacklisted int

	// The halt (Stepper.AdvanceBefore): with haltSet, the event loop stops
	// at the last event boundary before simulated time reaches haltAt —
	// before firing any timer whose effective time is ≥ haltAt, before the
	// prefetch pass once haltAt is within eps of the clock (where a timer
	// at haltAt would already be due), and before any advance that would
	// land at or past it. The stepped prefix is then exactly the one a
	// world that also held a run arriving at haltAt would have stepped, and
	// the halted engine holds the state a from-scratch run has at that
	// boundary, so continuing — in place, in a fork or from a file —
	// replays the identical floating-point trajectory. (An advance never
	// needs the eps care: if now+dt rounds below haltAt, haltAt−now ≥ dt,
	// so a timer at haltAt would not shorten it.)
	haltSet bool
	haltAt  float64

	// The live Σ JCT lower bound (bound.go): Σ JCT of the finished jobs,
	// how many jobs have arrived and not finished and Σ of their
	// arrivals, and Σ over unfinished jobs of their unstarted work's
	// least time on the cluster.
	lbDone, lbStarts, lbNeed float64
	lbArrived                int
	// perCap is, by phase, the seconds one unit of work takes on the
	// whole cluster: 1 / (network bandwidth, executors, disk bandwidth).
	perCap [3]float64
}

// engineBufs are the engine's reusable buffers. They keep their capacity
// from run to run but no contents: reset empties them for a new run and
// release empties them before the engine goes back to the pool.
type engineBufs struct {
	// Per-node capacities of the run's cluster.
	netBW  []float64
	diskBW []float64
	execs  []float64

	// states is the mutable stage-state slab, indexed as engineRun.info.
	// Iterating it is deterministic, so maybePrefetch submits prefetches
	// — and thus appends items — in a fixed order.
	states  []stageState
	jobBase []int
	// inW holds every stage's input weights over its parents
	// (workload.Job.AppendInputWeights): the availability weights of an
	// AggShuffle run and the read shares of a placed one.
	inW    []float64
	items  []*item
	timers timerHeap

	// Per-node, per-phase item buckets, maintained incrementally as items
	// are added and removed so the rates pass does not rebuild them every
	// event. Bucket order is the e.items subsequence order, preserving
	// the exact accumulation order of the pre-dirty-tracking engine.
	// With Options.Links, readBk (with netBW and dirtyR) also holds one
	// bucket per ordered node pair past the nodes' own: linkBucket maps
	// a link to it, and a read over it shares the link as a NIC read
	// shares its NIC.
	computeBk [][]*item
	readBk    [][]*item
	writeBk   [][]*item
	// dirty[w] marks that node w's consumer set for the phase changed
	// since its rates were last computed.
	dirtyC []bool
	dirtyR []bool
	dirtyW []bool

	occOpen map[skey]*OccupancySegment

	// The side tables of the per-stage lists few runs keep, by slab
	// index; nil until first used. pending holds the nodes whose read
	// finished while the stage could not compute yet (an AggShuffle
	// prefetch, or a recompute hold). compDurs records finished
	// compute-partition durations and specDone the partitions already
	// cloned (Options.Speculation only).
	pending  map[int][]int
	compDurs map[int][]float64
	specDone map[partKey]bool

	// Per-job result slots: arrival, end (completion or abort) and abort
	// error, sized for the initial runs and grown by Stepper.Inject.
	jobStart, jobEnd []float64
	jobErrs          []error
	// ended lists the jobs that completed or aborted since the last
	// Stepper.TakeEnded, in the order their terminal events fired.
	ended []int
	// work holds each job's share of the live Σ JCT bound (bound.go);
	// only an answer-only engine keeps it.
	work []jobWork

	// fault / recovery state
	stagesLeft []int  // incomplete stages per job
	failed     []bool // per-job abort flag
	recomps    map[recompKey]*recompState

	// Scratch buffers reused across events (the engine is single-threaded;
	// each is live only within one helper call). medScratch is the
	// speculation median scratch.
	itemPool      []*item
	medScratch    []float64
	shareScratch  []float64
	demandScratch []float64
	weightScratch []float64
	wfAlloc       []float64
	wfActive      []int
	busyScratch   []float64
	doneScratch   []*item
	deadScratch   []*item
	stageRates    []float64 // per-slab-index total compute rate (AggShuffle)
	// jobCount[j] counts job j's items in the bucket being shared
	// (countJobs); it is all zero between calls.
	jobCount []int
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
// back (release): a Run's, and a Stepper's (forks included) once its
// Result is taken. The Result is never pooled; it always belongs to the caller.
var enginePool sync.Pool

// newEngine returns an engine for the given runs, a pooled one when the
// pool has one. Its per-job result slots are sized for the initial runs;
// Stepper.Inject grows them. The Result has no timelines until finalize
// builds them from the stage slab.
func newEngine(opt Options, runs []JobRun) *engine {
	e, _ := enginePool.Get().(*engine)
	if e == nil {
		e = new(engine)
	}
	// A pooled engine comes back with its per-run state zeroed and its
	// buffers empty (release), just as a new one starts.
	e.opt, e.runs, e.nNodes = opt, runs, len(opt.Cluster.Nodes)
	nRead := e.nNodes
	if opt.Links != nil {
		nRead += e.nNodes * e.nNodes
	}
	nStages := 0
	for _, r := range runs {
		nStages += r.Job.Graph.Len()
	}
	e.reset(e.nNodes, nRead, len(runs), nStages)
	for _, n := range opt.Cluster.Nodes {
		e.netBW = append(e.netBW, n.NetBW)
		e.diskBW = append(e.diskBW, n.DiskBW)
		e.execs = append(e.execs, float64(n.Executors))
	}
	e.totalExec = float64(opt.Cluster.TotalExecutors())
	e.totalNet = opt.Cluster.TotalNetBW()
	e.totalDisk = opt.Cluster.TotalDiskBW()
	for src, row := range opt.Links {
		for dst, bw := range row {
			if src == dst {
				bw = 0 // a node reads from itself over its NIC
			}
			e.netBW = append(e.netBW, bw)
			e.totalNet += bw
		}
	}
	e.perCap = [3]float64{phRead: 1 / e.totalNet, phCompute: 1 / e.totalExec, phWrite: 1 / e.totalDisk}
	return e
}

// release hands a finished engine's buffers back to the pool, emptied
// and with its per-run state zeroed, as newEngine expects them. The
// caller must hold the only reference: nothing may touch the engine
// afterwards. References into the caller's world (options, runs, graphs,
// the Result) are dropped so a pooled engine pins none of it.
func (e *engine) release() {
	e.dropTable()
	e.empty()
	e.engineRun = engineRun{}
	enginePool.Put(e)
}

// ownTable readies the engine's stage table for n more stages: it keeps a
// table it holds alone, and otherwise moves to a copy of its own in a
// pooled table, so the stages it appends are never seen by an engine that
// shares the old one.
func (e *engine) ownTable(n int) {
	if t := e.tab; t != nil && t.refs.Load() == 1 {
		t.info = slices.Grow(t.info, n)
		return
	}
	t, _ := tablePool.Get().(*stageTable)
	if t == nil {
		t = new(stageTable)
	}
	t.refs.Store(1)
	t.info = append(slices.Grow(t.info[:0], len(e.info)+n), e.info...)
	e.dropTable()
	e.tab, e.info = t, t.info
}

// dropTable lets go of the engine's stage table. The last holder clears
// it and returns it to tablePool.
func (e *engine) dropTable() {
	t := e.tab
	if t == nil {
		return
	}
	e.tab, e.info = nil, nil
	if t.refs.Add(-1) == 0 {
		clear(t.info)
		t.info = t.info[:0]
		tablePool.Put(t)
	}
}

// empty drops the buffers' contents, keeping their capacity. Live items
// rejoin the item pool, and the maps and error slots are cleared so no
// reference into the caller's world outlives its run. The item list and
// buckets are only truncated (reset truncates the buckets): they point
// at the engine's own pooled items, which pin nothing else.
func (b *engineBufs) empty() {
	b.itemPool = append(b.itemPool, b.items...)
	b.items = b.items[:0]
	b.states = b.states[:0]
	b.netBW, b.diskBW, b.execs = b.netBW[:0], b.diskBW[:0], b.execs[:0]
	b.jobBase, b.inW, b.timers = b.jobBase[:0], b.inW[:0], b.timers[:0]
	b.work = b.work[:0]
	b.stagesLeft = b.stagesLeft[:0]
	b.ended = b.ended[:0]
	clear(b.jobErrs)
	b.doneScratch, b.deadScratch = b.doneScratch[:0], b.deadScratch[:0]
	clear(b.occOpen)
	clear(b.recomps)
	clear(b.pending)
	clear(b.compDurs)
	clear(b.specDone)
}

// reset sizes the empty buffers for a run over nNodes nodes with nRead
// read buckets, nJobs jobs and nStages (job, stage) pairs.
func (b *engineBufs) reset(nNodes, nRead, nJobs, nStages int) {
	if b.occOpen == nil {
		b.occOpen = make(map[skey]*OccupancySegment)
		b.recomps = make(map[recompKey]*recompState)
	}
	b.netBW = slices.Grow(b.netBW, nRead)
	b.diskBW = slices.Grow(b.diskBW, nNodes)
	b.execs = slices.Grow(b.execs, nNodes)
	b.states = slices.Grow(b.states, nStages)
	b.computeBk = resizeBuckets(b.computeBk, nNodes)
	b.readBk = resizeBuckets(b.readBk, nRead)
	b.writeBk = resizeBuckets(b.writeBk, nNodes)
	b.dirtyC = resizeBools(b.dirtyC, nNodes)
	b.dirtyR = resizeBools(b.dirtyR, nRead)
	b.dirtyW = resizeBools(b.dirtyW, nNodes)
	b.failed = resizeBools(b.failed, nJobs)
	b.jobStart = append(b.jobStart[:0], make([]float64, nJobs)...)
	b.jobEnd = append(b.jobEnd[:0], make([]float64, nJobs)...)
	b.jobErrs = append(b.jobErrs[:0], make([]error, nJobs)...)
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

// newItem returns a pooled item set up as a fresh attempt of one phase of
// the stage's partition home on node (a machine, or a read bucket), with
// vol bytes to go. It writes every field in place, one by one — a
// whole-struct literal would build the item on the stack and copy all of
// it over — so the fields no caller sets (attempt, capped, recompute,
// spec and the rest) start at zero, whatever the pooled item held.
func (e *engine) newItem(in *stageInfo, home, node int, ph phase, vol float64) *item {
	it := e.popItem()
	it.key, it.st, it.home, it.node, it.ph = in.key, in.idx, home, node, ph
	it.remaining, it.rate = vol, 0
	it.capped, it.done, it.volume, it.capRate = false, 0, vol, 0
	it.execUsed = 0
	it.attempt, it.failAt, it.slow, it.recompute = 0, 0, 0, false
	it.spec, it.rival, it.cancelled, it.startAt = false, nil, false, 0
	return it
}

// popItem returns an item from the pool. Its contents are stale: newItem
// rewrites every field, clone copies a whole item over it.
func (e *engine) popItem() *item {
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
	e.timers.push(timer{at: at, seq: e.seq, kind: kind, st: int32(st), job: int32(job)})
}

// arrivalSeq is job ji's arrival-timer sequence number. Arrivals take a
// reserved range below every counter-issued seq, so at equal times they
// fire before all other timers and in job-index order — whether the job
// was set up with the world or injected after other timers were queued.
func arrivalSeq(ji int) int { return math.MinInt64/2 + ji }

func (e *engine) setup() {
	for ji, run := range e.runs {
		e.jobStart[ji] = run.Arrival
		e.addRun(ji, run)
	}
	e.jobsLeft = len(e.runs)
	if e.opt.Faults != nil {
		for _, cr := range e.opt.Faults.CrashEvents(e.nNodes) {
			e.seq++
			e.timers.push(timer{at: cr.At, seq: e.seq, kind: tNodeCrash, node: int32(cr.Node), job: -1})
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
	// n is the number of partitions per stage: one per node, or the
	// single one of a placed stage.
	n := float64(e.nNodes)
	if run.Placement != nil {
		n = 1
	}
	g := run.Job.Graph
	base := len(e.states)
	e.jobBase = append(e.jobBase, base)
	stages := g.Len()
	e.ownTable(stages)
	for i, sid := range g.StagesView() {
		// Append zero entries and fill them in place: a literal would be
		// built on the stack and copied over whole.
		e.tab.info = append(e.tab.info, stageInfo{})
		e.states = append(e.states, stageState{})
		in, st := &e.tab.info[base+i], &e.states[base+i]
		in.key, in.idx, in.base = skey{ji, sid}, base+i, base
		if run.Active != nil && !run.Active[i] {
			in.off = true
			stages--
			continue
		}
		p := run.Job.Profiles[sid]
		in.parents, in.children = g.ParentPos(i), g.ChildPos(i)
		st.parentsLeft = len(in.parents)
		if run.Active != nil {
			for _, pp := range in.parents {
				if !run.Active[pp] {
					st.parentsLeft--
				}
			}
		}
		in.node = -1
		if run.Placement != nil {
			in.node = run.Placement[sid]
		}
		in.profile = profileView{
			perNodeIn:    float64(p.ShuffleIn) / n,
			perNodeOut:   float64(p.ShuffleOut) / n,
			procRate:     p.ProcRate,
			skew:         p.Skew,
			tasksPerNode: float64(p.Tasks) / n,
		}
		if p.ProcRate > 0 {
			in.profile.computeSec = in.profile.perNodeIn / p.ProcRate
		}
		st.computeTot = in.profile.perNodeIn * n
		if e.opt.AggShuffle || run.Placement != nil {
			// Only prefetching and placed reads read the weights.
			in.wOff = len(e.inW)
			e.inW = run.Job.AppendInputWeights(e.inW, sid, run.Active)
		}
	}
	e.info = e.tab.info
	e.stagesLeft = append(e.stagesLeft, stages)
	if e.answerOnly {
		e.addWork(ji)
	}
	e.timers.push(timer{at: run.Arrival, seq: arrivalSeq(ji), kind: tJobArrival, job: int32(ji)})
}

// stateIdx returns the slab index of (job, stage), or -1 when the world
// has no such stage (or its run's mask leaves it out).
func (e *engine) stateIdx(k skey) int {
	if k.job < 0 || k.job >= len(e.jobBase) {
		return -1
	}
	return e.posIdx(k.job, e.runs[k.job].Job.Graph.Pos(k.stage))
}

// posIdx returns the slab index of the job's stage at position pos, or -1
// when the world has no such job or position (or the run's mask leaves
// the stage out).
func (e *engine) posIdx(job, pos int) int {
	if job < 0 || job >= len(e.jobBase) || pos < 0 || pos >= e.runs[job].Job.Graph.Len() {
		return -1
	}
	if si := e.jobBase[job] + pos; !e.info[si].off {
		return si
	}
	return -1
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

// markReady records the readiness of the stage at slab index si and
// schedules its (possibly delayed) submission.
func (e *engine) markReady(si int) {
	in, st := &e.info[si], &e.states[si]
	if st.readyValid {
		return
	}
	st.readyValid = true
	st.tl.ready = e.now
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvStageReady, Job: in.key.job, Stage: in.key.stage, Node: -1})
	}
	if st.submitted {
		// AggShuffle prefetch already created the read items; readiness
		// only unblocks compute (handled by parent-completion bookkeeping).
		return
	}
	d := e.delayOf(in.key)
	if st.hasOverride {
		d = st.delayOverride
	}
	st.submitAt = e.now + d
	e.pushTimer(st.submitAt, tSubmitStage, si, in.key.job)
}

// submit creates the read items of the stage at slab index si on every
// node, or those of its one partition when it is placed.
func (e *engine) submit(si int, prefetch bool) {
	in, st := &e.info[si], &e.states[si]
	if st.submitted {
		return
	}
	st.submitted = true
	st.prefetched = prefetch
	e.startWork(in.key.job, phRead, in.profile.perNodeIn*e.partitions(in))
	if prefetch {
		st.computeTot = in.profile.perNodeIn * float64(e.nNodes) * (1 + aggShuffleOverhead)
	}
	st.tl.start = e.now
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvStageSubmitted, Job: in.key.job, Stage: in.key.stage, Node: -1, Prefetch: prefetch})
	}
	if in.node >= 0 {
		e.submitPlaced(si)
		return
	}
	st.readsLeft = e.nNodes
	st.computeLeft = e.nNodes
	st.writesLeft = e.nNodes
	for w := 0; w < e.nNodes; w++ {
		vol := in.profile.perNodeIn
		if vol <= eps {
			// No network input: read completes immediately.
			e.finishRead(si, w)
			continue
		}
		it := e.newItem(in, w, e.placeNode(w), phRead, vol)
		it.capped = prefetch
		e.addItem(it)
	}
}

// submitPlaced creates a placed stage's reads: for each parent on
// another node, in parent order, its input share over that node's link
// into the stage's node; then what no link carries — the whole input of
// a root — as one flow over the stage's own NIC when a parent ran on its
// node or it is a root, just as an unplaced partition reads. A stage
// whose reads are all empty goes straight to compute. Parents a masked
// run leaves out are skipped, so a stage without an active parent reads
// as a root.
func (e *engine) submitPlaced(si int) {
	in, st := &e.info[si], &e.states[si]
	st.readsLeft, st.computeLeft, st.writesLeft = 0, 1, 1
	vin := in.profile.perNodeIn
	root, local := true, false
	remote := 0.0
	for i, p := range in.parents {
		ps := &e.info[in.base+p]
		if ps.off {
			continue
		}
		root = false
		if w := ps.node; w != in.node {
			if vol := float64(e.inW[in.wOff+i] * vin); vol > eps {
				e.addPlacedRead(si, e.linkBucket(w, in.node), vol)
				remote += vol
			}
		} else {
			local = true
		}
	}
	if vol := vin - remote; (root || local) && vol > eps {
		e.addPlacedRead(si, in.node, vol)
	}
	if st.readsLeft == 0 {
		st.readsLeft = 1
		e.finishRead(si, in.node)
	}
}

// addPlacedRead adds one read flow of a placed stage on read bucket bk.
func (e *engine) addPlacedRead(si, bk int, vol float64) {
	in := &e.info[si]
	e.states[si].readsLeft++
	e.addItem(e.newItem(in, in.node, bk, phRead, vol))
}

// linkBucket is the read bucket of the link from node src to node dst.
func (e *engine) linkBucket(src, dst int) int { return e.nNodes*(1+src) + dst }

func (e *engine) finishRead(si, node int) {
	in, st := &e.info[si], &e.states[si]
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvReadDone, Job: in.key.job, Stage: in.key.stage, Node: node})
	}
	st.readsLeft--
	if st.readsLeft == 0 {
		st.tl.readEnd = e.now
		if e.opt.Watchdog != nil {
			e.watch(EvReadDone, si)
		}
	}
	if in.node >= 0 && st.readsLeft > 0 {
		return // a placed stage computes once every read is done
	}
	if st.parentsLeft == 0 && st.recomputeHolds == 0 {
		e.startCompute(si, node)
	} else {
		if e.pending == nil {
			e.pending = make(map[int][]int)
		}
		e.pending[si] = append(e.pending[si], node)
	}
}

// startPending starts the compute of every partition of the stage at
// slab index si that finished reading while it could not compute.
func (e *engine) startPending(si int) {
	if len(e.pending) == 0 {
		return
	}
	nodes, ok := e.pending[si]
	if !ok {
		return
	}
	for _, w := range nodes {
		e.startCompute(si, w)
	}
	delete(e.pending, si)
}

// computeVol is the compute-phase volume of one partition of the stage
// at slab index si.
func (e *engine) computeVol(si int) float64 {
	vol := e.info[si].profile.perNodeIn
	if e.states[si].prefetched {
		// Proactive aggregation re-processes pushed partial outputs.
		vol *= 1 + aggShuffleOverhead
	}
	return vol
}

func (e *engine) startCompute(si, node int) {
	in := &e.info[si]
	e.startWork(in.key.job, phCompute, in.profile.computeSec)
	vol := e.computeVol(si)
	if vol <= eps {
		e.finishCompute(si, node)
		return
	}
	it := e.newItem(in, node, e.placeNode(node), phCompute, vol)
	it.attempt = 1
	e.armCompute(it)
	e.addItem(it)
}

func (e *engine) finishCompute(si, node int) {
	in, st := &e.info[si], &e.states[si]
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvComputeDone, Job: in.key.job, Stage: in.key.stage, Node: node})
	}
	st.computeLeft--
	if st.computeLeft == 0 {
		st.tl.computeEnd = e.now
	}
	e.startWork(in.key.job, phWrite, in.profile.perNodeOut)
	vol := in.profile.perNodeOut
	if vol <= eps {
		e.finishWrite(si, node)
		return
	}
	e.addItem(e.newItem(in, node, e.placeNode(node), phWrite, vol))
}

func (e *engine) finishWrite(si, node int) {
	in, st := &e.info[si], &e.states[si]
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvWriteDone, Job: in.key.job, Stage: in.key.stage, Node: node})
	}
	st.writesLeft--
	if st.writesLeft > 0 {
		return
	}
	// Stage complete.
	job := in.key.job
	st.complete = true
	st.computeDone = st.computeTot
	st.tl.end = e.now
	st.tl.retries = st.retries
	if e.now > e.jobEnd[job] {
		e.jobEnd[job] = e.now
	}
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvStageCompleted, Job: job, Stage: in.key.stage, Node: -1})
	}
	e.stagesLeft[job]--
	if e.stagesLeft[job] == 0 {
		e.jobsLeft--
		e.finishWork(job)
		e.ended = append(e.ended, job)
		if o := e.opt.Observer; o != nil {
			o.OnEvent(Event{T: e.now, Kind: EvJobDone, Job: job, Stage: -1, Node: -1})
		}
	}
	if e.opt.Watchdog != nil {
		e.watch(EvStageCompleted, si)
	}
	for _, c := range in.children {
		ci := in.base + c
		cst := &e.states[ci]
		cst.parentsLeft--
		if cst.parentsLeft == 0 {
			if cst.recomputeHolds == 0 {
				// Unblock any partitions that prefetched their input already.
				e.startPending(ci)
			}
			e.markReady(ci)
		}
	}
}

func (e *engine) fireTimer(t timer) {
	switch t.kind {
	case tJobArrival:
		e.arriveWork(int(t.job))
		// The job's roots, in insertion order: no stage of the job has
		// started yet, so a stage waits on no parent exactly when it has
		// no active one.
		base := e.jobBase[t.job]
		for i := base; i < base+e.runs[t.job].Job.Graph.Len(); i++ {
			if !e.info[i].off && e.states[i].parentsLeft == 0 {
				e.markReady(i)
			}
		}
	case tSubmitStage:
		st := &e.states[t.st]
		if e.failed[t.job] || st.submitted {
			return
		}
		if st.submitAt > e.now+eps {
			// A watchdog pushed the submission later; chase it.
			e.pushTimer(st.submitAt, tSubmitStage, int(t.st), int(t.job))
			return
		}
		e.submit(int(t.st), false)
	case tRecompute:
		// no-op; loop recomputes rates
	case tRetry:
		e.retryTask(t)
	case tNodeCrash:
		e.crashNode(int(t.node))
	}
}

// maybePrefetch creates AggShuffle prefetch read items for stages whose
// parents have all started computing, in slab — (job, insertion) — order.
func (e *engine) maybePrefetch() {
	if !e.opt.AggShuffle {
		return
	}
	for i := range e.states {
		in := &e.info[i]
		if e.states[i].submitted || len(in.parents) == 0 {
			continue
		}
		ok := true
		for _, p := range in.parents {
			pst := &e.states[in.base+p]
			if !pst.submitted && !pst.complete {
				ok = false
				break
			}
		}
		if ok {
			e.submit(i, true)
		}
	}
}

// availability returns A(t) ∈ [0,1] and dA/dt for the prefetched stage at
// slab index si given current parent compute progress and the
// per-slab-index compute rates (nil when the caller needs no dA/dt).
func (e *engine) availability(si int, computeRates []float64) (a, da float64) {
	in := &e.info[si]
	for i, p := range in.parents {
		w := e.inW[in.wOff+i]
		pi := in.base + p
		pst := &e.states[pi]
		if pst.complete {
			a += w
			continue
		}
		if pst.computeTot <= eps {
			continue
		}
		prog := pst.computeDone / pst.computeTot
		s := e.info[pi].profile.skew
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
		a += float64(w * ramp)
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
	//    demands limited by prefetch availability. Only an AggShuffle run
	//    has capped items, so only it looks for them. Per-stage total
	//    compute rates (for availability derivatives) are only assembled
	//    when a capped item actually needs them.
	var stageRates []float64
	if e.opt.AggShuffle {
		for w := range e.readBk {
			if !e.dirtyR[w] && anyCapped(e.readBk[w]) {
				e.dirtyR[w] = true
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
	}
	for w := range e.readBk {
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
				capBW = e.contended(capBW, len(its))
				if e.opt.FairByJob {
					for i, s := range e.jobShares(its, capBW) {
						its[i].rate = s
					}
				} else {
					s := capBW / float64(len(its))
					for _, it := range its {
						it.rate = s
					}
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
	// contention factor degrades throughput, not occupancy. An equal
	// split needs no per-item shares.
	var shares []float64
	equal := e.execs[w] / float64(len(its))
	if e.opt.FairByJob {
		shares = e.jobShares(its, e.execs[w])
	}
	cf := e.contended(1, len(its))
	nodeCF := e.nodeSlowdown(w)
	for i, it := range its {
		pv := &e.info[it.st].profile
		share := equal
		if shares != nil {
			share = shares[i]
		}
		if tpn := pv.tasksPerNode; tpn > 0 && share > tpn {
			share = tpn
		}
		it.execUsed = share
		it.rate = share * pv.procRate * cf
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

// anyCapped reports whether a read bucket holds an availability-capped
// item.
func anyCapped(its []*item) bool {
	for _, it := range its {
		if it.capped {
			return true
		}
	}
	return false
}

// readNodeRates water-fills one node's NIC among its read items. A bucket
// without job weights or capped items has every demand elastic; there the
// water-fill's answer is the equal split, computed directly.
func (e *engine) readNodeRates(w int, stageRates []float64) {
	its := e.readBk[w]
	if len(its) == 0 {
		return
	}
	capBW := e.netBW[w]
	if s := e.nodeSlowdown(w); s > 1 {
		capBW /= s
	}
	if !e.opt.FairByJob && !(e.opt.AggShuffle && anyCapped(its)) {
		share := equalShare(e.contended(capBW, len(its)), len(its))
		for _, it := range its {
			it.rate = share
		}
		return
	}
	demands := resizeF64(&e.demandScratch, len(its))
	for i, it := range its {
		demands[i] = math.Inf(1)
		it.capRate = 0
		if it.capped {
			if e.states[it.st].parentsLeft > 0 {
				a, da := e.availability(it.st, stageRates)
				capVol := float64(it.volume * a)
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

// contended scales a resource's capacity by the sharing-efficiency loss
// of n concurrent consumers (ContentionFactor).
func (e *engine) contended(capacity float64, n int) float64 {
	if n <= 1 {
		return capacity
	}
	return capacity / ContentionFactor(e.opt.ContentionOverhead, float64(n-1))
}

// jobShares splits capacity among items job-first (FairByJob): equally
// among the jobs, then equally among each job's items. Without FairByJob
// every item's share is capacity/float64(len(its)), which callers compute
// directly. The returned slice is the engine's share scratch — valid
// until the next jobShares call.
func (e *engine) jobShares(its []*item, capacity float64) []float64 {
	out := resizeF64(&e.shareScratch, len(its))
	jobShare := capacity / float64(e.countJobs(its))
	for i, it := range its {
		out[i] = jobShare / float64(e.jobCount[it.key.job])
	}
	e.uncountJobs(its)
	return out
}

// jobWeights returns water-filling weights implementing job-first fairness.
// The returned slice is the engine's weight scratch.
func (e *engine) jobWeights(its []*item) []float64 {
	nJobs := float64(e.countJobs(its))
	w := resizeF64(&e.weightScratch, len(its))
	for i, it := range its {
		w[i] = 1 / (nJobs * float64(e.jobCount[it.key.job]))
	}
	e.uncountJobs(its)
	return w
}

// countJobs counts each job's items in its into jobCount and returns the
// number of distinct jobs among them. uncountJobs zeroes the counts again
// by walking the same items, so no call clears the whole slice.
func (e *engine) countJobs(its []*item) int {
	n := 0
	for _, it := range its {
		j := it.key.job
		if j >= len(e.jobCount) {
			e.jobCount = append(e.jobCount, make([]int, j+1-len(e.jobCount))...)
		}
		if e.jobCount[j] == 0 {
			n++
		}
		e.jobCount[j]++
	}
	return n
}

// uncountJobs undoes countJobs(its).
func (e *engine) uncountJobs(its []*item) {
	for _, it := range its {
		e.jobCount[it.key.job] = 0
	}
}

// nextDT returns the time to the next item event (completion or
// availability catch-up), or +Inf.
func (e *engine) nextDT() float64 {
	dt, agg := math.Inf(1), e.opt.AggShuffle
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
		if agg && it.capped && it.ph == phRead {
			if e.states[it.st].parentsLeft > 0 {
				a, _ := e.availability(it.st, nil) // da not needed here
				capVol := float64(it.volume * a)
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

// advance progresses every item by dt (rates are constant until then)
// and moves the clock, in one pass over the items that also integrates
// resource usage and collects the items that completed or died into the
// done/dead scratch, which fireDone then drains. Each integral and each
// node's busy executors accumulate in item order, as separate passes
// would. Occupancy and the tracked series are sampled at the pre-advance
// clock. An answer-only engine (a what-if world, or a drain) integrates no
// usage and samples no series, so its pass only moves the items; only an
// AggShuffle run tracks the capped items' and stages' compute progress,
// which availability alone reads.
func (e *engine) advance(dt float64) {
	if e.opt.TrackOccupancy {
		e.recordOccupancy()
	}
	usage, agg := !e.answerOnly, e.opt.AggShuffle
	var trackNet, trackDisk, totNet, totDisk float64
	busyExecs := e.busyScratch
	if usage {
		clear(busyExecs)
	}
	kept := e.items[:0]
	done, dead := e.doneScratch[:0], e.deadScratch[:0]
	for _, it := range e.items {
		if usage {
			switch it.ph {
			case phRead:
				e.netBytesInt += float64(it.rate * dt)
				totNet += it.rate
				if it.node == e.opt.TrackNode {
					trackNet += it.rate
				}
			case phWrite:
				e.diskBytesInt += float64(it.rate * dt)
				totDisk += it.rate
				if it.node == e.opt.TrackNode {
					trackDisk += it.rate
				}
			case phCompute:
				busyExecs[it.node] += it.execUsed
			}
		}
		p := float64(it.rate * dt)
		it.remaining -= p
		if agg {
			if it.capped {
				it.done += p
			}
			if it.ph == phCompute && !it.recompute {
				e.states[it.st].computeDone += p
			}
		}
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
	if !usage {
		e.now += dt
		return
	}

	var trackCPUBusy, totBusyExec float64
	for w, busy := range busyExecs {
		if busy > e.execs[w] {
			busy = e.execs[w]
		}
		if busy > 0 {
			e.cpuBusyInt += float64(busy * dt)
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
	e.now += dt
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
func (e *engine) recordOccupancy() {
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
		w := it.node
		if w >= e.nNodes {
			w = it.home // a link read holds a slot on its receiving node
		}
		if !m[w] {
			m[w] = true
			perNode[w]++
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
	// Close segments that changed, then open new ones. Map order is
	// fine: finalize sorts the closed segments into a total order.
	for k, seg := range e.occOpen {
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
// (itemOrder is a total order on live items, so ties do not occur —
// except between a placed stage's reads from two parents on one node,
// which share a link bucket and keep their parent order).
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

// fireDone fires the transitions of the items advance removed as
// completed or failed, then frees them.
func (e *engine) fireDone() {
	done, dead := e.doneScratch, e.deadScratch
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
		if e.opt.Speculation && it.ph == phCompute && !it.recompute {
			if e.compDurs == nil {
				e.compDurs = make(map[int][]float64)
			}
			e.compDurs[it.st] = append(e.compDurs[it.st], e.now-it.startAt)
		}
		if it.recompute {
			e.finishRecompute(it)
			continue
		}
		switch it.ph {
		case phRead:
			e.finishRead(it.st, it.home)
		case phCompute:
			e.finishCompute(it.st, it.home)
		case phWrite:
			e.finishWrite(it.st, it.home)
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
		durs := e.compDurs[it.st]
		if e.specDone[partKey{it.st, it.home}] || len(durs)*2 < e.nNodes {
			continue
		}
		if it.rate <= eps || e.now <= it.startAt {
			continue
		}
		med := e.medianDur(durs)
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
	if e.specDone == nil {
		e.specDone = make(map[partKey]bool)
	}
	e.specDone[partKey{it.st, it.home}] = true
	tgt := e.specTarget(it)
	if tgt < 0 {
		return
	}
	cl := e.newItem(&e.info[it.st], it.home, tgt, phCompute, it.volume)
	cl.attempt, cl.spec = it.attempt, true
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
	for {
		done, err := e.step()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	e.finalize()
	return e.result(), nil
}

// result returns the finalized Result for the caller to own: a copy of
// the engine's with the per-job slots copied out of the pooled buffers.
func (e *engine) result() *Result {
	r := e.res
	r.JobStart, r.JobEnd, r.JobErrors = slices.Clone(e.jobStart), slices.Clone(e.jobEnd), slices.Clone(e.jobErrs)
	return &r
}

// step runs exactly one event-loop iteration: fire every timer due now,
// then make one rates-pass-and-advance (or halt, or detect completion).
// It is the loop body of run, shared so external drivers — the Stepper
// primitives and the shard runner built on them — interleave engines at
// event granularity with zero behavior change: a run stepped to
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
				return true, nil
			}
		}
		t := e.timers.pop()
		if t.at > e.now {
			e.now = t.at
		}
		e.fireTimer(t)
	}
	if e.haltSet && e.haltAt <= e.now+eps {
		// An arrival at haltAt is due: it would fire here, before the
		// prefetch pass.
		return true, nil
	}
	e.maybePrefetch()
	if e.idle() {
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
	if dt < MinEventStep {
		dt = MinEventStep
	}
	if e.haltSet && e.now+dt >= e.haltAt {
		// The same floating-point expression advance would store into
		// e.now: halting here leaves the engine exactly one advance
		// short of the halt time, at a clean pre-advance boundary.
		return true, nil
	}
	e.advance(dt)
	e.fireDone()
	e.res.Events++
	if e.now > e.opt.MaxTime {
		return false, fmt.Errorf("sim: exceeded MaxTime %.0fs", e.opt.MaxTime)
	}
	if e.res.Events > 5_000_000 {
		return false, fmt.Errorf("sim: event limit exceeded at t=%.3f with %d items", e.now, len(e.items))
	}
	return false, nil
}

// idle reports whether the run has nothing left to do: every job has
// completed or failed (leftover crash/retry timers no longer matter), or
// no item is in flight and no timer is pending.
func (e *engine) idle() bool {
	return e.jobsLeft == 0 || (len(e.items) == 0 && len(e.timers) == 0)
}

// peekNextEventTime prices the next event without committing to it: the
// simulated time step would advance the clock to if called now, +Inf when
// the engine is drained. It only performs mutations that are idempotent at
// an event boundary — the same maybePrefetch/computeRatesPass pair step
// re-runs after an AdvanceBefore halt — so peek-then-step
// is bit-identical to step alone, and peeking adds no persistent engine
// state (nothing for the clone to carry).
//
// A due timer is priced at max(now, timer) without being fired; a state
// step() would report as deadlocked is priced at now, so a caller that
// steps by peek time reaches the next step promptly and step() surfaces
// the error.
func (e *engine) peekNextEventTime() float64 {
	if e.idle() {
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
	if dt < MinEventStep {
		dt = MinEventStep
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
	for _, t := range e.jobEnd {
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
	// Emit the timelines in (job, stage ID) order straight from the slab: a
	// stage completes at most once and its timeline is final from then on.
	// The slice is sized exactly and is non-nil even when no stage
	// completed.
	n := 0
	for i := range e.states {
		if e.states[i].complete {
			n++
		}
	}
	tls := make([]StageTimeline, 0, n)
	for ji, run := range e.runs {
		base := e.jobBase[ji]
		for _, p := range run.Job.Graph.IDOrderPos() {
			if e.states[base+p].complete {
				tls = append(tls, e.timeline(base+p))
			}
		}
	}
	e.res.Timelines = tls
}
