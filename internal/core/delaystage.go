// Package core implements the paper's contribution: the DelayStage
// stage-delay scheduling strategy (Alg. 1). Given a job's DAG and resource
// profiles, it computes the set X of delayed submission times for the
// parallel stages that greedily minimizes the makespan of the parallel
// region, enabling CPU / network / disk interleaving across stages.
//
// The delay semantics match the Spark prototype (Sec. 4.2): x_k is extra
// time the scheduler sleeps after stage k becomes ready (all parents
// complete) before submitting it, so the dependency constraint (6) holds
// by construction.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/perfmodel"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Order selects the execution-path scheduling sequence (Sec. 4.1 / 5.3).
type Order int

const (
	// Descending schedules long-running paths first — the DelayStage
	// default, which the paper finds best (Fig. 14).
	Descending Order = iota
	// Ascending schedules short paths first ("ascending DelayStage").
	Ascending
	// Random shuffles the path order ("random DelayStage").
	Random
)

func (o Order) String() string {
	switch o {
	case Descending:
		return "descending"
	case Ascending:
		return "ascending"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// Options configures Alg. 1.
type Options struct {
	Cluster *cluster.Cluster
	Order   Order
	// Seed drives the Random order shuffle (ignored otherwise).
	Seed int64
	// SlotSeconds is the granularity of the delayed-time scan (the paper
	// slots time at one second). Zero means 1 s.
	SlotSeconds float64
	// MaxCandidates caps the number of candidate delays evaluated per
	// stage; when the scan range divided by SlotSeconds exceeds it, the
	// slot is widened adaptively. Zero means 64.
	MaxCandidates int
	// DisableRefine drops the refinement pass: by default every stage is
	// re-scanned once against the full stage set after the first greedy
	// sweep, fixing the staleness of one-shot greedy decisions (a delay
	// chosen early can become useless — or harmful — once later stages get
	// theirs). The pass is an extension over the paper's single sweep;
	// disabling it runs Alg. 1 verbatim. A second pass never changes the
	// schedule: the pass ends on the makespan it started each scan from.
	DisableRefine bool
	// DisableBoundPrune turns off both of the scan's bounds — the
	// analytic tier and the drain cutoff (Evaluator.Scan) — so every
	// candidate is answered by the exact evaluator and drained to its
	// end: the single-tier reference the invariance tests and benchmarks
	// compare against. Schedules are byte-identical either way: a pruned
	// candidate's lower bound already met the scan-start best, and a cut
	// candidate's live bound the running best, so its exact makespan
	// provably fails the improve-by-tolerance test.
	DisableBoundPrune bool
	// Approximate switches the candidate evaluation from the what-if
	// fluid simulation (default; faithful to Alg. 1 lines 12–14) to the
	// analytic model's Eq. 1–3 per-phase prediction (perfmodel
	// BoundEvaluator.PredictAt) — no simulation at all, which is what
	// replays trace-scale jobs in minutes. Makespan/StockMakespan are
	// predictions, not simulations; Evaluations land in Prune.Approx.
	Approximate bool
	// Placement and Links mirror sim.JobRun.Placement and
	// sim.Options.Links: with a Placement, every stage runs on its node
	// of Cluster, which the what-if simulations use as it is (not
	// coarsened), reading across nodes over Links. The analytic model
	// knows no links, so a placed job is planned without the analytic
	// tier and Approximate is an error. Links need a Placement.
	Placement map[dag.StageID]int
	Links     [][]float64
}

// PlanStats is the planning work of Alg. 1 calls: how many objective
// evaluations they made, how the evaluator answered them and how the
// two-tier candidate scan split them. Schedule embeds it, and aggregates
// over many calls sum it with Add.
type PlanStats struct {
	// Evaluations counts objective evaluations, memo hits included.
	Evaluations int
	// CacheHits, ForkedEvals and FullEvals break Evaluations down by how
	// the evaluator answered them: from the what-if memo cache (refine
	// passes re-query many configurations verbatim), from a candidate
	// scan's held world (a fork at the candidate's submission time, or
	// the held world itself — only the rest simulated), or by a full run
	// from the job's arrival: a fork of the unstepped prepared world,
	// bit-identical to a from-scratch run, which is how every evaluation
	// outside a scan's candidates is answered (a scan's base
	// configuration, Tmax, the refinement passes' checks). Under
	// Approximate, CacheHits counts layout-memo hits and FullEvals full
	// layouts (nothing forks).
	CacheHits   int
	ForkedEvals int
	FullEvals   int
	// CutEvals counts the ForkedEvals whose drain stopped early, once its
	// live Σ JCT bound showed the candidate could not beat the scan's
	// running best (see Evaluator.Scan).
	CutEvals int
	// ReusedScans counts the candidate scans whose held world started
	// from the previous scan's ready boundary instead of the job's
	// arrival.
	ReusedScans int
	Prune
}

// Prune breaks the two-tier candidate scan down: how many candidates
// received an analytic bound, how many the lower bound eliminated before
// any exact evaluation, and how the evaluations were answered.
type Prune struct {
	// Bounded counts scan candidates for which an analytic lower bound was
	// computed (the incumbent re-use is never bounded — it is never
	// re-evaluated either).
	Bounded int
	// Pruned counts candidates the bound eliminated: lower(candidate)
	// already met the scan-start best, so the exact evaluator provably
	// could not improve on it.
	Pruned int
	// Exact counts evaluations answered by the fluid simulation; Approx
	// counts evaluations answered by the analytic model
	// (Options.Approximate). Exact + Approx = Evaluations.
	Exact  int
	Approx int
}

// Add accumulates o into s.
func (s *PlanStats) Add(o PlanStats) {
	s.Evaluations += o.Evaluations
	s.CacheHits += o.CacheHits
	s.ForkedEvals += o.ForkedEvals
	s.FullEvals += o.FullEvals
	s.CutEvals += o.CutEvals
	s.ReusedScans += o.ReusedScans
	s.Bounded += o.Bounded
	s.Pruned += o.Pruned
	s.Exact += o.Exact
	s.Approx += o.Approx
}

// Schedule is Alg. 1's output.
type Schedule struct {
	// Delays is X: per-stage extra delay (seconds after ready). Stages
	// absent from the map are submitted immediately.
	Delays map[dag.StageID]float64
	// Makespan is the predicted makespan of the parallel region under X.
	Makespan float64
	// StockMakespan is the predicted makespan with all-zero delays, for
	// reporting the expected gain.
	StockMakespan float64
	// K is the parallel-stage set, Paths its execution-path decomposition
	// in the order Alg. 1 processed it.
	K     []dag.StageID
	Paths []dag.Path
	// ComputeTime is how long Alg. 1 itself took (Fig. 15 / Sec. 5.4).
	ComputeTime time.Duration
	// PlanStats is the call's planning work.
	PlanStats
}

// Evaluator predicts the completion time of the parallel region under a
// given delay assignment, considering only the stages in the active set —
// Alg. 1 schedules path by path, and a stage's candidates are judged
// against the paths scheduled so far (plus its own), not against paths it
// has not reached yet. Active sets and delays are indexed by stage
// position (Graph.StagesView order). Implementations: simEvaluator
// (what-if fluid simulation) and approxEvaluator (the analytic model's
// prediction).
type Evaluator interface {
	// SetActive restricts evaluation to the stages whose mask entry is
	// set (nil = all). The evaluator keeps its own copy of the mask.
	SetActive(active []bool) error
	// Makespan evaluates the delays (nil = all zero).
	Makespan(delays []float64) (float64, error)
	// Scan evaluates one candidate scan of the stage at position k: it
	// sets mks[i] to the makespan with the stage's delay xs[i]
	// (ascending), every other delay as in delays, and returns how many
	// candidates it answered. delays is unchanged on return. best is the
	// scan-start best: a candidate that provably cannot beat the running
	// best of the scan's argmin loop (mks[i] < best − sim.ScanTolerance,
	// in candidate order) may read +Inf instead of its makespan; +Inf
	// asks for every makespan.
	Scan(delays []float64, k int, xs, mks []float64, best float64) (int, error)
	// Close releases what the evaluator holds once planning is done.
	Close()
}

// Compute runs Alg. 1 on the job and returns the delay schedule X.
func Compute(opt Options, job *workload.Job) (*Schedule, error) {
	sc, err := newScan(opt, job, Arrival{})
	if err != nil {
		return nil, err
	}
	sched := sc.sched
	if len(sched.K) == 0 {
		// Nothing to delay: the whole job is one sequential chain.
		return sc.result(nil)
	}

	// First sweep (Alg. 1 lines 5–21): the active set grows path by path,
	// so the longest path is scheduled against only itself (and keeps its
	// stages undelayed), and each later path interleaves around the paths
	// already scheduled.
	n := len(sc.delays)
	active := make([]bool, n)
	scheduled := make([]bool, n)
	for _, p := range sc.paths {
		for _, k := range p {
			active[k] = true
		}
		if err := sc.setActive(active); err != nil {
			return nil, err
		}
		for _, k := range p {
			if scheduled[k] { // lines 7–9: already handled in a former path
				continue
			}
			scheduled[k] = true
			if err := sc.scan(k, nil); err != nil {
				return sc.result(err)
			}
		}
	}

	// Refinement pass (extension, see Options.DisableRefine): re-scan every
	// stage against the full set, discarding delays that went stale.
	if err := sc.setActive(nil); err != nil {
		return nil, err
	}
	best, err := sc.makespan(sc.delays)
	if err != nil {
		return nil, err
	}
	if !opt.DisableRefine {
		if err := sc.refine(&best); err != nil {
			return sc.result(err)
		}
	}
	// Never-worse guard: x = 0 is always feasible (stock scheduling), and
	// the greedy sweep judges early stages against restricted stage sets,
	// which can land coordinate descent in a basin worse than stock.
	if best > sched.StockMakespan {
		clear(sc.delays)
		best = sched.StockMakespan
	}
	sched.Makespan = best
	return sc.result(nil)
}

// Arrival is the world a job arrives into. The zero Arrival is Compute's:
// an empty cluster, the job arriving at 0.
type Arrival struct {
	// World is the committed jobs' simulation paused (AdvanceBefore) just
	// before At; nil is an empty cluster. It is only forked.
	World *sim.Stepper
	At    float64
	// FairByJob is the sharing policy of a nil World's simulations.
	FairByJob bool
	// Committed is Σ analytic JCT lower bounds over World's jobs, added
	// to every candidate's lower bound and every approximate score.
	Committed float64
}

// PlanArrival runs Alg. 1 for a job arriving into a running world (the
// paper's Sec. 6 multi-job extension; scheduler.OnlinePlanner calls it per
// arrival). Makespan and StockMakespan are the objective, Σ JCT over the
// world's jobs and the newcomer (under Approximate, a.Committed plus the
// newcomer's predicted JCT). It runs Compute's scan with four changes: a
// stage's candidates span Σ solo(K) − solo(k), not Tmax − solo(k), spread
// evenly (candidates' spread grid); a.Committed joins every lower bound;
// two refinement passes over the full stage set replace the
// growing-active-set sweep; and there is no never-worse guard — Makespan
// starts at StockMakespan and only decreases, and the caller judges the
// gain.
func PlanArrival(opt Options, job *workload.Job, a Arrival) (*Schedule, error) {
	sc, err := newScan(opt, job, a)
	if err != nil {
		return nil, err
	}
	if len(sc.sched.K) == 0 {
		return sc.result(nil)
	}
	sc.span, sc.spread = 0, true
	for _, id := range sc.sched.K {
		sc.span += sc.solo[job.Graph.Pos(id)]
	}
	best := sc.sched.StockMakespan
	for pass := 0; pass < 2 && err == nil; pass++ {
		err = sc.refine(&best)
	}
	sc.sched.Makespan = best
	return sc.result(err)
}

// newScan validates a planning call's inputs, builds its scan machinery
// (Alg. 1 lines 1–4, the analytic tier, the evaluator of the job arriving
// into a) and evaluates the stock objective, Compute's Tmax and default
// span. When K is empty nothing past it is built.
func newScan(opt Options, job *workload.Job, a Arrival) (*scanCtx, error) {
	start := time.Now()
	if opt.Cluster == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if err := opt.Cluster.Validate(); err != nil {
		return nil, err
	}
	if job == nil {
		return nil, fmt.Errorf("core: nil job")
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	switch {
	case opt.Placement != nil && opt.Approximate:
		return nil, fmt.Errorf("core: Approximate cannot plan a placed job: the analytic model knows no links")
	case opt.Placement == nil && opt.Links != nil:
		return nil, fmt.Errorf("core: Links need a Placement")
	}
	if opt.SlotSeconds <= 0 {
		opt.SlotSeconds = 1
	}
	if opt.MaxCandidates <= 0 {
		opt.MaxCandidates = 64
	}

	reach, err := dag.NewReachability(job.Graph)
	if err != nil {
		return nil, err
	}
	model, err := perfmodel.New(opt.Cluster)
	if err != nil {
		return nil, err
	}

	// Lines 1–3: parallel set, execution paths, solo times t̂_k.
	g := job.Graph
	ids := g.StagesView()
	solo := make([]float64, 2*len(ids))
	for p, id := range ids {
		solo[p] = model.SoloStageTime(job.Profiles[id])
	}
	weight := func(id dag.StageID) float64 { return solo[g.Pos(id)] }
	k := dag.ParallelStages(g, reach)
	sc := &scanCtx{
		sched: &Schedule{Delays: map[dag.StageID]float64{}, K: k},
		ids:   ids, solo: solo[:len(ids)], delays: solo[len(ids):],
		opt: opt, start: start, committed: a.Committed,
	}
	if len(k) == 0 {
		return sc, nil
	}
	paths := dag.ExecutionPaths(g, reach, weight)

	// Line 4: order the paths.
	switch opt.Order {
	case Descending:
		dag.SortPathsDescending(paths, weight)
	case Ascending:
		dag.SortPathsAscending(paths, weight)
	case Random:
		rng := rand.New(rand.NewSource(opt.Seed))
		rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	default:
		return nil, fmt.Errorf("core: unknown order %d", opt.Order)
	}
	sc.sched.Paths = paths
	sc.paths = make([][]int, len(paths))
	for i, p := range paths {
		sc.paths[i] = make([]int, len(p.Stages))
		for j, id := range p.Stages {
			sc.paths[i][j] = g.Pos(id)
		}
	}

	// The analytic bound evaluator backs the pruning tier (lower bounds
	// against the scan-start best) and, in approximate mode, the scoring
	// itself. It must be built on the cluster the scored evaluator runs
	// against: the coarse view for the sim tier, the raw cluster for the
	// analytic tier. The aggregate work/capacity term is only sound
	// against the simulator (the prediction's truncated stretch fixed
	// point does not conserve capacity), so one evaluator without it
	// serves both of the analytic tier's roles. A placed job has no
	// analytic tier: the model knows no links.
	var bev *perfmodel.BoundEvaluator
	switch {
	case opt.Approximate:
		bev, err = perfmodel.NewBoundEvaluator(opt.Cluster, job, perfmodel.BoundConfig{})
	case !opt.DisableBoundPrune && opt.Placement == nil:
		bev, err = perfmodel.NewBoundEvaluator(sim.Coarsen(opt.Cluster), job, perfmodel.BoundConfig{IncludeWorkBound: true})
	}
	if err != nil {
		return nil, err
	}
	if opt.Approximate {
		sc.ev = newApproxEvaluator(bev, len(ids), a.Committed, &sc.sched.PlanStats)
	} else {
		sev, err := newSimEvaluator(opt, job, a, &sc.sched.PlanStats)
		if err != nil {
			return nil, err
		}
		sc.ev = sev
	}
	if !opt.DisableBoundPrune {
		sc.bounds = bev
	}

	stock, err := sc.makespan(nil)
	if err != nil {
		sc.ev.Close()
		return nil, err
	}
	sc.sched.StockMakespan, sc.span = stock, stock
	return sc, nil
}

// scanCtx carries one planning call's scan machinery: the evaluator, the
// optional analytic pruning tier, the schedule being built and the scan
// invariants (solo times, candidate span and grid, committed lower bound).
// Inside the scan a stage is its position (Graph.StagesView order):
// delays, solo times and the paths are indexed by it, and result converts
// the delays to the Schedule's map.
type scanCtx struct {
	ev     Evaluator
	bounds *perfmodel.BoundEvaluator // nil = single-tier (no pruning)
	sched  *Schedule
	ids    []dag.StageID // the job's stages by position
	delays []float64     // X being built; 0 = submit when ready
	solo   []float64
	paths  [][]int // sched.Paths by position
	opt    Options
	start  time.Time

	// A stage's candidates are candidates(span − solo(k), slot,
	// MaxCandidates, spread); committed is added to every candidate's
	// lower bound.
	span      float64
	spread    bool
	committed float64

	skip []bool // per-candidate prune mask, reused across scans
	// xs and mks are the surviving candidates of a scan and their
	// makespans, reused across scans.
	xs, mks []float64
}

// setActive restricts the evaluator and the pruning tier (which an
// approximate evaluator wraps itself) to the active stage set.
func (sc *scanCtx) setActive(active []bool) error {
	if err := sc.ev.SetActive(active); err != nil {
		return err
	}
	if sc.bounds != nil && !sc.opt.Approximate {
		sc.bounds.SetActive(active)
	}
	return nil
}

// makespan evaluates one configuration and counts it (an error fails the
// whole call, so its count never surfaces).
func (sc *scanCtx) makespan(delays []float64) (float64, error) {
	sc.countEval(1)
	return sc.ev.Makespan(delays)
}

// result finishes a planning call, or returns its error.
func (sc *scanCtx) result(err error) (*Schedule, error) {
	sched := sc.sched
	if sc.ev != nil {
		sc.ev.Close()
	}
	if err != nil {
		return nil, err
	}
	for p, x := range sc.delays {
		if x != 0 {
			sched.Delays[sc.ids[p]] = x
		}
	}
	sched.ComputeTime = time.Since(sc.start)
	return sched, nil
}

// refine re-scans every stage once, in path order, against the running
// best (see scan).
func (sc *scanCtx) refine(best *float64) error {
	seen := make([]bool, len(sc.delays))
	for _, p := range sc.paths {
		for _, k := range p {
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := sc.scan(k, best); err != nil {
				return err
			}
		}
	}
	return nil
}

// countEval attributes n evaluator answers to the right Prune side.
func (sc *scanCtx) countEval(n int) {
	sc.sched.Evaluations += n
	if sc.opt.Approximate {
		sc.sched.Prune.Approx += n
	} else {
		sc.sched.Prune.Exact += n
	}
}

// scan runs the two-tier candidate scan of the stage at position k and
// stores the argmin in sc.delays. When globalBest is nil the comparison baseline
// is the active-set makespan with the stage's incumbent delay (first
// sweep); otherwise globalBest is used and updated (refinement).
//
// Tier 1 prunes against the *scan-start* best — not the running best —
// because tier 2 answers the survivors as one batch. Byte-identity to the
// single-tier scan holds either way: exact(c) ≥ lower(c) ≥ best₀ − tol ≥
// runningBest − tol means the sequential comparison below could never
// have accepted c.
func (sc *scanCtx) scan(k int, globalBest *float64) error {
	sched, opt := sc.sched, sc.opt
	// A zero delay is no delay: the stage has an incumbent to re-use only
	// when it is delayed.
	incumbent := sc.delays[k]
	had := incumbent != 0
	base, err := sc.makespan(sc.delays)
	if err != nil {
		return err
	}
	best := base
	if globalBest != nil {
		best = *globalBest
	}
	// Line 10: delay-after-ready semantics make the dependency lower
	// bound 0 by construction; the upper bound is the span (Compute: the
	// job-level stock makespan) minus the stage's own solo time (delaying
	// past that point cannot shorten any path it is on).
	upper := sc.span - sc.solo[k]
	if upper < 0 {
		upper = 0
	}
	bestDelay := incumbent
	cands := candidates(upper, opt.SlotSeconds, opt.MaxCandidates, sc.spread)

	// Tier 1: analytic lower bounds. lower(x) = max(rest, through+x) in
	// O(1) per candidate after one O(V+E) ScanLower. The slack term
	// absorbs the simulator's float-integration noise: a bound that ties
	// the exact makespan to ~1e-9 relative precision must not prune. It is
	// the drain cut's test (sim.ScanTolerance), so both discard only
	// candidates the argmin below rejects.
	skip := sc.skip[:0]
	if sc.bounds != nil && len(cands) > 1 {
		if through, rest, ok := sc.bounds.ScanLowerAt(k, sc.delays); ok {
			for _, x := range cands {
				s := false
				if !(x == incumbent && had) {
					sched.Prune.Bounded++
					lb := rest
					if t := through + x; t > lb {
						lb = t
					}
					lb += sc.committed
					if lb-float64(sim.ScanTolerance*(1+lb)) >= best-sim.ScanTolerance {
						s = true
						sched.Prune.Pruned++
					}
				}
				skip = append(skip, s)
			}
		}
	}
	sc.skip = skip

	// Tier 2: exact evaluation of the survivors, then the argmin in
	// candidate order (ties keep the earlier candidate). The evaluator
	// replays the argmin loop to cut losing drains short against the
	// running best; a cut candidate reads +Inf and loses here as its
	// exact makespan would. Within one memo key space the best never
	// rises, so a cut configuration never wins and no later base
	// evaluation asks for it.
	xs := sc.xs[:0]
	for ci, x := range cands {
		if x == incumbent && had {
			continue // already measured as base
		}
		if len(skip) > 0 && skip[ci] {
			continue // tier 1: provably cannot win
		}
		xs = append(xs, x)
	}
	mks := slices.Grow(sc.mks[:0], len(xs))[:len(xs)]
	sc.xs, sc.mks = xs, mks
	limit := best
	if opt.DisableBoundPrune {
		limit = math.Inf(1)
	}
	n, err := sc.ev.Scan(sc.delays, k, xs, mks, limit)
	sc.countEval(n)
	if err != nil {
		return err
	}
	for i, x := range xs {
		if mks[i] < best-sim.ScanTolerance {
			best = mks[i]
			bestDelay = x
		}
	}
	if globalBest != nil && best < *globalBest {
		*globalBest = best
	}
	sc.delays[k] = bestDelay
	return nil
}

// candidates returns the slotted delay candidates in [0, upper]. The slot
// widens adaptively when upper/slot exceeds maxN, bounding Alg. 1's cost on
// very long makespans. With spread (PlanArrival's grid) the n candidates
// are always spread evenly, upper/(n−1) apart, so the grid reaches upper.
// Edge contract (tested by TestCandidates):
//
//   - upper ≤ 0, NaN or +Inf → {0}: no (finite) scan range, zero delay is
//     always feasible
//   - upper < slot     → {0}: the range holds no second slot boundary
//   - slot ≤ 0 or NaN  → treated as 1 s (Compute normalizes SlotSeconds,
//     but direct callers get the paper's default)
//   - maxN ≤ 1         → {0}: a single candidate is the zero delay, not a
//     division-by-zero slot widening
//   - upper/slot beyond any int (a tiny slot) → maxN candidates: the slot
//     count is capped while still a float, so it cannot overflow
func candidates(upper, slot float64, maxN int, spread bool) []float64 {
	if !(upper > 0) || math.IsInf(upper, 1) {
		return []float64{0}
	}
	if !(slot > 0) {
		slot = 1
	}
	if maxN <= 1 {
		return []float64{0}
	}
	slots := math.Floor(upper/slot) + 1
	n := int(min(slots, float64(maxN)))
	if slots > float64(maxN) || spread && n > 1 {
		slot = upper / float64(n-1)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(i)*slot)
	}
	return out
}
