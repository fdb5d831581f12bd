package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/perfmodel"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// restrictJob returns the job induced by the active stage set (nil = the
// job itself): only active stages remain and parent edges to inactive
// stages are dropped, which is how Alg. 1 sees the world while paths are
// still being scheduled one by one. It counts the induced stages and
// edges first, so the sub-graph and its profile map are built presized in
// one pass, through one reused parent buffer (AddStage copies it).
func restrictJob(job *workload.Job, active map[dag.StageID]bool) (*workload.Job, error) {
	if active == nil {
		return job, nil
	}
	ids := job.Graph.StagesView()
	n, edges := 0, 0
	for _, id := range ids {
		if !active[id] {
			continue
		}
		n++
		for _, p := range job.Graph.Stage(id).Parents {
			if active[p] {
				edges++
			}
		}
	}
	g := dag.NewSized(n, edges)
	profiles := make(map[dag.StageID]workload.StageProfile, n)
	var parents []dag.StageID
	for _, id := range ids {
		if !active[id] {
			continue
		}
		s := job.Graph.Stage(id)
		parents = parents[:0]
		for _, p := range s.Parents {
			if active[p] {
				parents = append(parents, p)
			}
		}
		if err := g.AddStage(dag.Stage{ID: id, Name: s.Name, Parents: parents}); err != nil {
			return nil, err
		}
		profiles[id] = job.Profiles[id]
	}
	sub := &workload.Job{Name: job.Name, Graph: g, Profiles: profiles}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return sub, nil
}

// coarseFor memoizes sim.Coarsen per cluster: replan loops and experiment
// sweeps build many evaluators against the same (immutable) cluster, and
// the coarse view never changes. Bounded so a long-lived process creating
// clusters forever does not leak — coarsening is cheap to redo.
var (
	coarseMu    sync.Mutex
	coarseCache = map[*cluster.Cluster]*cluster.Cluster{}
)

func coarseFor(c *cluster.Cluster) *cluster.Cluster {
	coarseMu.Lock()
	defer coarseMu.Unlock()
	if cc, ok := coarseCache[c]; ok {
		return cc
	}
	if len(coarseCache) >= 256 {
		clear(coarseCache)
	}
	cc := sim.Coarsen(c)
	coarseCache[c] = cc
	return cc
}

// EvalStats breaks the what-if evaluations of one Compute run down by how
// they were answered.
type EvalStats struct {
	// CacheHits counts configurations answered from the memo cache —
	// refine passes and replans re-query many configurations verbatim.
	CacheHits int
	// ForkedRuns counts scan candidates answered from the scan's held
	// world: the simulation up to the candidate's submission time was
	// shared with the other candidates, only the rest ran.
	ForkedRuns int
	// FullRuns counts complete from-scratch simulations: the evaluations
	// outside a candidate scan (a scan's base configuration, Tmax, the
	// refinement passes' checks) and, with the cache disabled, every one.
	FullRuns int
}

// evalShared is the state an evaluator shares with all its clones: the
// memo cache of evaluated configurations, the sim evaluator's
// restricted-job cache and the work counters, all behind mu.
type evalShared struct {
	disable bool

	mu      sync.Mutex
	memo    map[string]float64
	subJobs map[string]*workload.Job
	stats   EvalStats
}

// delayPair is one (stage, exact delay bits) term of a fingerprint.
type delayPair struct {
	id   dag.StageID
	bits uint64
}

// simEvaluator answers Alg. 1's "what happens if stage k is delayed by x̂"
// question by running the coarse fluid simulator on the active sub-job —
// the faithful interpretation of lines 12–14 (stage time under the
// resulting parallelism, completion-time updates of subsequent and
// interfering stages). The sub-job arrives into the evaluator's world
// (Arrival): every answer is Σ JCT over the world's jobs and the sub-job,
// which for Compute's empty world and arrival at 0 is the sub-job's end
// time, bit for bit.
//
// Three layers keep repeated questions cheap (see DESIGN.md, "What-if
// evaluation"): an exact memo cache over (active set, delay vector)
// fingerprints, held-world candidate scans (scanMakespans: every
// candidate of one stage shares the simulation with the stage held back,
// up to the candidate's own submission time), and a restricted-job cache
// per active set. The simulator is deterministic, memo keys are
// collision-free, and forks of the held world are bit-identical to
// from-scratch runs, so schedules are byte-identical with every layer on
// or off.
type simEvaluator struct {
	coarse    *cluster.Cluster
	job       *workload.Job
	cur       *workload.Job // restricted to the active set
	shared    *evalShared
	activeKey string // canonical key of the active set ("*" = all)
	arrival   Arrival
	ji        int // the sub-job's index in its world

	// Per-clone scratch, reset by Clone. held is a scan's delay map (see
	// scanMakespans).
	keys          fingerprinter
	filterScratch map[dag.StageID]float64
	held          map[dag.StageID]float64
}

func newSimEvaluator(c *cluster.Cluster, job *workload.Job, disableCache bool, a Arrival) *simEvaluator {
	ji := 0
	if a.World != nil {
		ji = a.World.Jobs()
	}
	return &simEvaluator{
		coarse: coarseFor(c), job: job, cur: job, activeKey: "*", arrival: a, ji: ji,
		shared: &evalShared{
			disable: disableCache,
			memo:    map[string]float64{},
			subJobs: map[string]*workload.Job{},
		},
	}
}

// Clone returns a concurrency-safe copy: immutable inputs and the shared
// cache state are carried over, the per-clone scratch buffers are not.
func (e *simEvaluator) Clone() Evaluator {
	c := *e
	c.keys, c.filterScratch, c.held = fingerprinter{}, nil, nil
	return &c
}

// activeKeyOf canonically encodes an active set ("*" = unrestricted).
func activeKeyOf(active map[dag.StageID]bool) string {
	if active == nil {
		return "*"
	}
	ids := make([]dag.StageID, 0, len(active))
	for id, on := range active {
		if on {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b []byte
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

func (e *simEvaluator) SetActive(active map[dag.StageID]bool) error {
	key := activeKeyOf(active)
	if key == e.activeKey {
		return nil
	}
	sh := e.shared
	sh.mu.Lock()
	sub, ok := sh.subJobs[key]
	sh.mu.Unlock()
	if !ok {
		var err error
		sub, err = restrictJob(e.job, active)
		if err != nil {
			return err
		}
		sh.mu.Lock()
		sh.subJobs[key] = sub
		sh.mu.Unlock()
	}
	e.cur, e.activeKey = sub, key
	return nil
}

// counters returns the shared work counters.
func (sh *evalShared) counters() EvalStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// fingerprinter builds exact memo keys for (active set, effective delay
// vector) configurations: the active-set key plus sorted (stage, exact
// float bits) pairs of every non-zero delay that applies to the active
// stages. Distinct configurations can never collide, and zero entries drop
// out, so "no entry" and "explicit 0" (the same evaluation) share one
// slot. Its buffers are per-evaluator scratch, so a key allocates only
// when it is stored: look it up with memo[string(k)], which does not
// allocate, and convert it only to insert a miss.
type fingerprinter struct {
	buf   []byte
	pairs []delayPair
	// batch holds a candidate scan's keys back to back; ends[i] is where
	// key i ends.
	batch []byte
	ends  []int
	// miss holds the indices of a batch's memo misses.
	miss []int
}

// key returns the configuration's memo key in the scratch buffer, valid
// until the next key call.
func (f *fingerprinter) key(activeKey string, delays map[dag.StageID]float64, applies func(dag.StageID) bool) []byte {
	pairs := f.pairs[:0]
	for id, v := range delays {
		if v != 0 && applies(id) {
			pairs = append(pairs, delayPair{id: id, bits: math.Float64bits(v)})
		}
	}
	slices.SortFunc(pairs, func(a, b delayPair) int { return cmp.Compare(a.id, b.id) })
	f.pairs = pairs
	key := append(f.buf[:0], activeKey...)
	for _, p := range pairs {
		key = append(key, '|')
		key = strconv.AppendInt(key, int64(p.id), 10)
		key = append(key, ':')
		key = strconv.AppendUint(key, p.bits, 16)
	}
	f.buf = key
	return key
}

// batchKey returns key i of the batch, valid until the batch is rebuilt.
func (f *fingerprinter) batchKey(i int) []byte {
	start := 0
	if i > 0 {
		start = f.ends[i-1]
	}
	return f.batch[start:f.ends[i]]
}

// inSub reports whether a stage belongs to the active sub-job.
func (e *simEvaluator) inSub(id dag.StageID) bool { return e.cur.Graph.Stage(id) != nil }

func (e *simEvaluator) Makespan(delays map[dag.StageID]float64) (float64, error) {
	sh := e.shared
	var fp []byte
	if !sh.disable {
		fp = e.keys.key(e.activeKey, delays, e.inSub)
		sh.mu.Lock()
		if mk, ok := sh.memo[string(fp)]; ok {
			sh.stats.CacheHits++
			sh.mu.Unlock()
			return mk, nil
		}
		sh.mu.Unlock()
	}
	mk, err := e.fullRun(delays)
	if err != nil {
		return 0, err
	}
	sh.mu.Lock()
	if !sh.disable {
		sh.memo[string(fp)] = mk
	}
	sh.stats.FullRuns++
	sh.mu.Unlock()
	return mk, nil
}

// scanMakespans prices the surviving candidates xs (ascending) of one
// scan of stage kid, every other delay fixed as in delays: mks[i] gets
// the makespan with kid delayed by xs[i]. It returns how many candidates
// it answered.
//
// Memo hits are answered first. The misses share one held world: the
// active sub-job arriving with kid's delay set to the largest miss,
// stepped to kid's ready time tr (a root is ready at arrival). Advancing it
// along the misses in ascending x, each miss but the last is a fork at
// the boundary just before tr + x, where Fork re-arms kid's pending
// submission timer at tr + x, so the fork only simulates [tr + x, end] and
// is bit-identical to a from-scratch run with delay x; the last miss is
// the held world itself, drained. The forks are taken one at a time on
// the calling goroutine; with workers > 1 their drains run on up to that
// many goroutines, all joined before it returns. Which candidates hit,
// fork or drain depends only on the memo, never on the interleaving, so
// the counters are the same at any parallelism.
func (e *simEvaluator) scanMakespans(ctx context.Context, deadline time.Time, delays map[dag.StageID]float64,
	kid dag.StageID, xs, mks []float64, workers int) (int, error) {
	sh := e.shared
	// The held world reads this map as stages become ready, forks and
	// their drains included, so it is fixed once the world is built. Every
	// such world is drained or dropped before the scan returns (the drain
	// pool joins its workers), so the next scan of this clone may clear
	// and refill it.
	if e.held == nil {
		e.held = make(map[dag.StageID]float64, len(delays)+1)
	}
	held := e.held
	clear(held)
	for id, v := range delays {
		if e.inSub(id) {
			held[id] = v
		}
	}
	keys := &e.keys
	keys.batch, keys.ends = keys.batch[:0], keys.ends[:0]
	for _, x := range xs {
		held[kid] = x
		keys.batch = append(keys.batch, keys.key(e.activeKey, held, e.inSub)...)
		keys.ends = append(keys.ends, len(keys.batch))
	}
	miss := keys.miss[:0]
	sh.mu.Lock()
	for i := range xs {
		if mk, ok := sh.memo[string(keys.batchKey(i))]; ok {
			mks[i] = mk
			sh.stats.CacheHits++
		} else {
			miss = append(miss, i)
		}
	}
	sh.mu.Unlock()
	keys.miss = miss
	hits := len(xs) - len(miss)
	if len(miss) == 0 {
		return hits, nil
	}

	last := miss[len(miss)-1]
	held[kid] = xs[last]
	w, err := e.arrive(held)
	if err != nil {
		return hits, err
	}
	tr, err := e.stepToReady(w, kid)
	if err != nil {
		return hits, err
	}

	var pool *drainPool
	if workers = min(workers, len(miss)); workers > 1 {
		pool = startDrains(workers, mks)
	}
	for _, i := range miss {
		if err = scanInterrupted(ctx, deadline); err != nil || (pool != nil && pool.failed.Load()) {
			break
		}
		s := w
		if i != last {
			if err = w.AdvanceBefore(tr + xs[i]); err != nil {
				break
			}
			if s, err = w.Fork([]sim.DelayUpdate{{Job: e.ji, Stage: kid, Delay: xs[i]}}); err != nil {
				break
			}
		}
		if pool != nil {
			pool.queue <- drainJob{i, s}
		} else if mks[i], err = s.DrainJCTSum(); err != nil {
			break
		}
	}
	if pool != nil {
		if werr := pool.wait(); werr != nil && (err == nil || err == errBudget) {
			err = werr
		}
	}
	if err != nil {
		return hits, err
	}
	sh.mu.Lock()
	for _, i := range miss {
		sh.memo[string(keys.batchKey(i))] = mks[i]
	}
	sh.stats.ForkedRuns += len(miss)
	sh.mu.Unlock()
	return len(xs), nil
}

// drainPool drains a scan's forks on worker goroutines into mks; the
// first error stops the scan (failed).
type drainPool struct {
	queue  chan drainJob
	wg     sync.WaitGroup
	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

type drainJob struct {
	i int
	s *sim.Stepper
}

func startDrains(workers int, mks []float64) *drainPool {
	p := &drainPool{queue: make(chan drainJob)}
	p.wg.Add(workers)
	for range workers {
		go func() {
			defer p.wg.Done()
			for d := range p.queue {
				var err error
				if mks[d.i], err = d.s.DrainJCTSum(); err != nil {
					p.mu.Lock()
					p.err = cmp.Or(p.err, err)
					p.mu.Unlock()
					p.failed.Store(true)
				}
			}
		}()
	}
	return p
}

// wait closes the queue, joins every worker and returns the first error.
func (p *drainPool) wait() error {
	close(p.queue)
	p.wg.Wait()
	return p.err
}

// arrive returns a world in which the active sub-job, with the given
// delays, arrives into the evaluator's world, positioned at the arrival:
// a fork of the committed world with the sub-job injected, or a fresh
// simulation of the sub-job alone when the world is empty.
func (e *simEvaluator) arrive(delays map[dag.StageID]float64) (*sim.Stepper, error) {
	a := e.arrival
	run := sim.JobRun{Job: e.cur, Arrival: a.At, Delays: delays}
	if a.World == nil {
		return sim.NewStepper(sim.Options{Cluster: e.coarse, TrackNode: -1, FairByJob: a.FairByJob}, []sim.JobRun{run})
	}
	w, err := a.World.Fork(nil)
	if err != nil {
		return nil, err
	}
	return w, w.Inject(run)
}

// stepToReady steps a world from arrive to the event boundary where stage
// kid becomes ready and returns its ready time. A root is ready at
// arrival: the world is left unstepped (stepping would advance past it)
// and the ready time is the arrival, which the root's recorded ready time
// can only exceed, by the engine's clock tolerance.
func (e *simEvaluator) stepToReady(w *sim.Stepper, kid dag.StageID) (float64, error) {
	if len(e.cur.Graph.Stage(kid).Parents) == 0 {
		return e.arrival.At, nil
	}
	for {
		if tr, ok := w.ReadyTime(e.ji, kid); ok {
			return tr, nil
		}
		if !w.HasPendingEvents() {
			return 0, fmt.Errorf("core: stage %d never became ready", kid)
		}
		if err := w.StepNextEvent(); err != nil {
			return 0, err
		}
	}
}

// fullRun simulates the active sub-job's arrival from scratch (from the
// committed world's pause) and returns Σ JCT over the world: the
// sub-job's end time in Compute's. Delays for stages outside the
// sub-job are filtered out; when every entry applies — the common case —
// the caller's live map is passed through as-is (the simulator neither
// retains nor mutates it past the call), and the filtered copy otherwise
// lands in a reused scratch map.
//
// Eq. (3) charges the delays x_k to the path times, so a window-width
// objective would let delays shift every path later for free; and
// minimizing only the last *parallel* stage can push the specific parents
// of a sequential tail later while the K-maximum shrinks, hurting the JCT
// the paper reports. The job end subsumes both: with zero-length tails it
// equals the parallel-region completion.
func (e *simEvaluator) fullRun(delays map[dag.StageID]float64) (float64, error) {
	d := delays
	if len(delays) > 0 {
		for id := range delays {
			if e.cur.Graph.Stage(id) == nil {
				if e.filterScratch == nil {
					e.filterScratch = make(map[dag.StageID]float64, len(delays))
				} else {
					clear(e.filterScratch)
				}
				for id, v := range delays {
					if e.cur.Graph.Stage(id) != nil {
						e.filterScratch[id] = v
					}
				}
				d = e.filterScratch
				break
			}
		}
	}
	s, err := e.arrive(d)
	if err != nil {
		return 0, err
	}
	return s.DrainJCTSum()
}

// approxEvaluator answers the same question from the analytic model's
// Prediction (Options.Approximate): the Eq. 1–3 per-phase layout, no
// simulation at all, so the whole Alg. 1 machinery — growing-active-set
// sweeps, refinement passes, the never-worse guard — runs unchanged at
// O(|K|²) per evaluation. The same BoundEvaluator serves the pruning tier;
// without the work term its Lower never exceeds the Prediction.
//
// Layouts are memoized like the sim evaluator's runs: refine passes and
// the base evaluation of each scan re-ask configurations the previous
// scan already priced, and a layout on a 100+-stage job is thousands of
// float operations. The key is exact, so a hit returns the identical
// float a recomputation would.
type approxEvaluator struct {
	b         *perfmodel.BoundEvaluator
	committed float64 // Arrival.Committed, added to every prediction
	shared    *evalShared
	activeKey string
	keys      fingerprinter // per-clone scratch, reset by Clone
}

func newApproxEvaluator(b *perfmodel.BoundEvaluator, committed float64) *approxEvaluator {
	return &approxEvaluator{b: b, committed: committed, activeKey: "*",
		shared: &evalShared{memo: map[string]float64{}}}
}

func (e *approxEvaluator) SetActive(active map[dag.StageID]bool) error {
	e.b.SetActive(active)
	e.activeKey = activeKeyOf(active)
	return nil
}

// Clone hands the clone its own bound-evaluator and key scratch; the
// immutable inputs, the active set and the memo stay shared.
func (e *approxEvaluator) Clone() Evaluator {
	c := *e
	c.b = e.b.Clone()
	c.keys = fingerprinter{}
	return &c
}

func (e *approxEvaluator) Makespan(delays map[dag.StageID]float64) (float64, error) {
	fp := e.keys.key(e.activeKey, delays, e.b.Active)
	sh := e.shared
	sh.mu.Lock()
	if mk, ok := sh.memo[string(fp)]; ok {
		sh.stats.CacheHits++
		sh.mu.Unlock()
		return mk, nil
	}
	sh.mu.Unlock()
	mk := e.committed + e.b.Predict(delays)
	sh.mu.Lock()
	sh.memo[string(fp)] = mk
	sh.stats.FullRuns++
	sh.mu.Unlock()
	return mk, nil
}
