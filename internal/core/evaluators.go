package core

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/perfmodel"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// restrictJob returns the job induced by the active stage set (nil = the
// job itself): only active stages remain and parent edges to inactive
// stages are dropped, which is how Alg. 1 sees the world while paths are
// still being scheduled one by one.
func restrictJob(job *workload.Job, active map[dag.StageID]bool) (*workload.Job, error) {
	if active == nil {
		return job, nil
	}
	g := dag.New()
	profiles := make(map[dag.StageID]workload.StageProfile)
	for _, id := range job.Graph.Stages() {
		if !active[id] {
			continue
		}
		var parents []dag.StageID
		for _, p := range job.Graph.Parents(id) {
			if active[p] {
				parents = append(parents, p)
			}
		}
		if err := g.AddStage(dag.Stage{ID: id, Name: job.Graph.Stage(id).Name, Parents: parents}); err != nil {
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
	// ForkedRuns counts simulations forked from a paused scan prefix: the
	// prefix up to the scanned stage's ready time was shared, only the
	// suffix ran.
	ForkedRuns int
	// FullRuns counts complete from-scratch simulations.
	FullRuns int
}

// evalShared is the state one simEvaluator shares with all its clones: the
// memo cache of evaluated configurations, the restricted-job cache, the
// work counters (behind mu), and the armed scan prefix (behind scanMu,
// so a prefix build never blocks concurrent memo hits).
type evalShared struct {
	disable bool

	mu      sync.Mutex
	memo    map[string]float64
	subJobs map[string]*workload.Job
	stats   EvalStats

	scanMu sync.Mutex
	scan   scanState
}

// scanState is the fork context of the current candidate scan — one
// stage's delay being swept, everything else fixed: the scanned stage, its
// ready time as measured by the scan's first full run (the stage's own
// delay cannot move it: a delay is only read *at* readiness), and the
// world paused just before that time, which later candidates fork.
type scanState struct {
	on     bool
	kid    dag.StageID
	trOK   bool
	tr     float64
	prefix *sim.Stepper
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
// interfering stages).
//
// Three layers keep repeated questions cheap (see DESIGN.md, "What-if
// evaluation"): an exact memo cache over (active set, delay vector)
// fingerprints, prefix forking during candidate scans (all candidates of
// one stage share the simulation prefix up to that stage's ready time),
// and a restricted-job cache per active set. The simulator is
// deterministic, memo keys are collision-free, and forked runs are
// bit-identical to from-scratch runs, so schedules are byte-identical with
// every layer on or off.
type simEvaluator struct {
	coarse    *cluster.Cluster
	job       *workload.Job
	cur       *workload.Job // restricted to the active set
	shared    *evalShared
	activeKey string // canonical key of the active set ("*" = all)

	// Per-clone scratch, reset by Clone.
	keys          fingerprinter
	filterScratch map[dag.StageID]float64
}

func newSimEvaluator(c *cluster.Cluster, job *workload.Job, disableCache bool) *simEvaluator {
	return &simEvaluator{
		coarse: coarseFor(c), job: job, cur: job, activeKey: "*",
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
	c.keys, c.filterScratch = fingerprinter{}, nil
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

// BeginScan implements scanAware: arm the fork context for a candidate
// scan of stage kid. Between BeginScan and EndScan every Makespan call
// varies only kid's delay.
func (e *simEvaluator) BeginScan(kid dag.StageID) {
	if e.shared.disable {
		return
	}
	e.shared.scanMu.Lock()
	e.shared.scan = scanState{on: true, kid: kid}
	e.shared.scanMu.Unlock()
}

// EndScan implements scanAware: drop the scan prefix.
func (e *simEvaluator) EndScan() {
	if e.shared.disable {
		return
	}
	e.shared.scanMu.Lock()
	e.shared.scan = scanState{}
	e.shared.scanMu.Unlock()
}

// evalStats returns the shared work counters.
func (e *simEvaluator) evalStats() EvalStats {
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	return e.shared.stats
}

// fingerprinter builds exact memo keys for (active set, effective delay
// vector) configurations: the active-set key plus sorted (stage, exact
// float bits) pairs of every non-zero delay that applies to the active
// stages. Distinct configurations can never collide, and zero entries drop
// out, so "no entry" and "explicit 0" (the same evaluation) share one
// slot. Its buffers are per-evaluator scratch.
type fingerprinter struct {
	buf   []byte
	pairs []delayPair
}

func (f *fingerprinter) key(activeKey string, delays map[dag.StageID]float64, applies func(dag.StageID) bool) string {
	pairs := f.pairs[:0]
	for id, v := range delays {
		if v != 0 && applies(id) {
			pairs = append(pairs, delayPair{id: id, bits: math.Float64bits(v)})
		}
	}
	slices.SortFunc(pairs, func(a, b delayPair) int { return int(a.id) - int(b.id) })
	f.pairs = pairs
	key := append(f.buf[:0], activeKey...)
	for _, p := range pairs {
		key = append(key, '|')
		key = strconv.AppendInt(key, int64(p.id), 10)
		key = append(key, ':')
		key = strconv.AppendUint(key, p.bits, 16)
	}
	f.buf = key
	return string(key)
}

// inSub reports whether a stage belongs to the active sub-job.
func (e *simEvaluator) inSub(id dag.StageID) bool { return e.cur.Graph.Stage(id) != nil }

func (e *simEvaluator) Makespan(delays map[dag.StageID]float64) (float64, error) {
	sh := e.shared
	var fp string
	if !sh.disable {
		fp = e.keys.key(e.activeKey, delays, e.inSub)
		sh.mu.Lock()
		if mk, ok := sh.memo[fp]; ok {
			sh.stats.CacheHits++
			sh.mu.Unlock()
			return mk, nil
		}
		sh.mu.Unlock()
	}
	mk, forked, err := e.simulate(delays)
	if err != nil {
		return 0, err
	}
	sh.mu.Lock()
	if !sh.disable {
		sh.memo[fp] = mk
	}
	if forked {
		sh.stats.ForkedRuns++
	} else {
		sh.stats.FullRuns++
	}
	sh.mu.Unlock()
	return mk, nil
}

// simulate answers one what-if configuration, forking the armed scan
// prefix when one exists. The bool reports whether the answer came from
// a fork rather than a from-scratch run.
//
// Within a scan the first miss runs from scratch while holding scanMu (so
// concurrent misses queue behind it instead of racing to duplicate the
// work) and records the scanned stage's ready time; the second miss
// pauses the shared prefix there; every later miss forks it. The counts
// are therefore deterministic at any Parallelism setting: one full run and
// m−1 forks for a scan with m misses.
func (e *simEvaluator) simulate(delays map[dag.StageID]float64) (float64, bool, error) {
	sh := e.shared
	if !sh.disable {
		sh.scanMu.Lock()
		if sh.scan.on {
			if sh.scan.prefix == nil && sh.scan.trOK {
				// Second miss: pause just before the scanned stage's ready
				// time with every delay but the scanned stage's baked in.
				pre := make(map[dag.StageID]float64, len(delays))
				for id, v := range delays {
					if id != sh.scan.kid && e.cur.Graph.Stage(id) != nil {
						pre[id] = v
					}
				}
				prefix, err := sim.NewStepper(sim.Options{Cluster: e.coarse, TrackNode: -1},
					[]sim.JobRun{{Job: e.cur, Delays: pre}})
				if err == nil {
					err = prefix.AdvanceBefore(sh.scan.tr)
				}
				if err != nil {
					sh.scanMu.Unlock()
					return 0, false, err
				}
				sh.scan.prefix = prefix
			}
			if prefix, kid := sh.scan.prefix, sh.scan.kid; prefix != nil {
				sh.scanMu.Unlock()
				res, err := runFork(prefix, []sim.DelayUpdate{{Job: 0, Stage: kid, Delay: delays[kid]}})
				if err != nil {
					return 0, false, err
				}
				return jobEnd(res), true, nil
			}
			// First miss of the scan.
			res, err := e.fullRun(delays)
			if err == nil {
				if tl := res.Timeline(0, sh.scan.kid); tl != nil {
					sh.scan.tr, sh.scan.trOK = tl.Ready, true
				}
			}
			sh.scanMu.Unlock()
			if err != nil {
				return 0, false, err
			}
			return jobEnd(res), false, nil
		}
		sh.scanMu.Unlock()
	}
	res, err := e.fullRun(delays)
	if err != nil {
		return 0, false, err
	}
	return jobEnd(res), false, nil
}

// runFork forks the paused scan prefix under the updates and steps the
// fork to its end. The prefix is only read, so concurrent candidates fork
// it at once.
func runFork(prefix *sim.Stepper, updates []sim.DelayUpdate) (*sim.Result, error) {
	f, err := prefix.Fork(updates)
	if err != nil {
		return nil, err
	}
	for f.HasPendingEvents() {
		if err := f.StepNextEvent(); err != nil {
			return nil, err
		}
	}
	return f.Result()
}

// fullRun simulates the active sub-job from scratch. Delays for stages
// outside the sub-job are filtered out; when every entry applies — the
// common case — the caller's live map is passed through as-is (sim.Run
// neither retains nor mutates it), and the filtered copy otherwise lands
// in a reused scratch map. Both avoid the per-call map the old code built.
func (e *simEvaluator) fullRun(delays map[dag.StageID]float64) (*sim.Result, error) {
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
	return sim.Run(sim.Options{Cluster: e.coarse, TrackNode: -1},
		[]sim.JobRun{{Job: e.cur, Delays: d}})
}

// jobEnd is the completion time of the whole (active) job, measured from
// job start. Eq. (3) charges the delays x_k to the path times, so a
// window-width objective would let delays shift every path later for free;
// and minimizing only the last *parallel* stage can push the specific
// parents of a sequential tail later while the K-maximum shrinks, hurting
// the JCT the paper reports. The job end subsumes both: with zero-length
// tails it equals the parallel-region completion.
func jobEnd(res *sim.Result) float64 {
	end := 0.0
	for _, tl := range res.Timelines {
		if tl.End > end {
			end = tl.End
		}
	}
	return end
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
	shared    *approxShared
	activeKey string
	keys      fingerprinter // per-clone scratch, reset by Clone
}

// approxShared is the memo state one approxEvaluator shares with its
// clones.
type approxShared struct {
	mu    sync.Mutex
	memo  map[string]float64
	stats EvalStats
}

func newApproxEvaluator(b *perfmodel.BoundEvaluator) *approxEvaluator {
	return &approxEvaluator{b: b, activeKey: "*",
		shared: &approxShared{memo: map[string]float64{}}}
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

// evalStats returns the shared memo counters (ForkedRuns stays zero: the
// analytic model has nothing to fork).
func (e *approxEvaluator) evalStats() EvalStats {
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	return e.shared.stats
}

func (e *approxEvaluator) Makespan(delays map[dag.StageID]float64) (float64, error) {
	fp := e.keys.key(e.activeKey, delays, e.b.Active)
	sh := e.shared
	sh.mu.Lock()
	if mk, ok := sh.memo[fp]; ok {
		sh.stats.CacheHits++
		sh.mu.Unlock()
		return mk, nil
	}
	sh.mu.Unlock()
	mk := e.b.Predict(delays)
	sh.mu.Lock()
	sh.memo[fp] = mk
	sh.stats.FullRuns++
	sh.mu.Unlock()
	return mk, nil
}
