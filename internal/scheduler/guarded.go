package scheduler

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// GuardMode selects what a tripped guard does with the rest of the plan.
type GuardMode int

const (
	// GuardCancel zeroes every not-yet-submitted delay: the job degrades
	// to stock Spark submit-when-ready, DelayStage's always-feasible
	// fallback.
	GuardCancel GuardMode = iota
	// GuardReplan re-runs Alg. 1 on profiles rescaled by the observed /
	// predicted runtime ratio, under a wall-clock budget; if the budget is
	// spent (or nothing was observed yet) it degrades to GuardCancel.
	GuardReplan
)

// GuardedDelayStage is DelayStage with a runtime watchdog. Alg. 1's delay
// schedule is computed from profiled R_k/s_k/d_k and assumes the predicted
// per-stage completion times t̂_k hold; on a faulty cluster they do not.
// The guard compares each observed stage completion against the plan's
// prediction: on drift beyond DriftTolerance — or on any task failure —
// it stops trusting the remaining delays and either cancels them or
// replans the unsubmitted suffix (Mode). A fault-free run never trips the
// guard and is byte-identical to plain DelayStage.
type GuardedDelayStage struct {
	DelayStage
	// Mode picks the reaction to a stale plan (default GuardCancel).
	Mode GuardMode
	// DriftTolerance is the relative deviation of an observed stage
	// completion from its prediction that trips the guard. Zero means
	// 0.15.
	DriftTolerance float64
	// ReplanBudget bounds the wall-clock time a GuardReplan recomputation
	// may take (it runs inside the scheduler's event loop). Zero means
	// 100 ms.
	ReplanBudget time.Duration
}

// Name implements Strategy.
func (g GuardedDelayStage) Name() string {
	n := "Guarded" + g.DelayStage.Name()
	if g.Mode == GuardReplan {
		n += "-replan"
	}
	return n
}

// Plan implements Strategy: the inner DelayStage plan plus a watchdog
// primed with the plan's predicted per-stage timelines.
func (g GuardedDelayStage) Plan(c *cluster.Cluster, job *workload.Job) (Plan, error) {
	plan, err := g.DelayStage.Plan(c, job)
	if err != nil {
		return Plan{}, err
	}
	wd, err := g.WatchdogFor(c, job, plan)
	if err != nil {
		return Plan{}, err
	}
	plan.Watchdog = wd
	return plan, nil
}

// WatchdogFor builds a fresh guard for an existing DelayStage plan of job
// (profiles as the planner believed them). Guards are stateful — one per
// simulation run; callers replaying the same plan under many fault plans
// should build a Primer once and take a watchdog per run, which shares the
// plan's predicted timelines and the replan cache instead of recomputing
// them. Returns nil when the plan delays nothing: submit-when-ready needs
// no guarding.
func (g GuardedDelayStage) WatchdogFor(c *cluster.Cluster, job *workload.Job, plan Plan) (sim.Watchdog, error) {
	p, err := g.Primer(c, job, plan)
	if err != nil || p == nil {
		return nil, err
	}
	return p.Watchdog(), nil
}

// GuardPrimer holds everything the watchdogs of one (cluster, job, plan)
// triple can share: the plan's predicted per-stage timelines (one
// fault-free what-if simulation, previously re-run per watchdog) and a
// cache of replan results keyed by the observed slowdown — grid sweeps
// replaying one plan under many fault plans trip their guards at identical
// drift ratios, so replans repeat verbatim across cells.
type GuardPrimer struct {
	g       GuardedDelayStage
	cluster *cluster.Cluster
	job     *workload.Job
	delays  map[dag.StageID]float64
	pred    map[dag.StageID]sim.StageTimeline

	mu sync.Mutex
	// replans caches Alg. 1's recomputed delay schedule per exact
	// slowdown scale (float bits). Budget-exceeded and failed replans are
	// never cached: they depend on wall-clock, not on the scale.
	replans map[uint64]map[dag.StageID]float64
	// crashReplans caches degraded-capacity replans, keyed by the exact
	// (slowdown scale, surviving-node set) pair.
	crashReplans map[string]map[dag.StageID]float64
}

// Primer precomputes the shared watchdog state for an existing plan.
// Returns (nil, nil) when the plan delays nothing.
func (g GuardedDelayStage) Primer(c *cluster.Cluster, job *workload.Job, plan Plan) (*GuardPrimer, error) {
	if len(plan.Delays) == 0 {
		return nil, nil
	}
	if g.DriftTolerance <= 0 {
		g.DriftTolerance = 0.15
	}
	if g.ReplanBudget <= 0 {
		g.ReplanBudget = 100 * time.Millisecond
	}
	// Predict the per-stage timelines the plan promises: a fault-free
	// what-if run of this job alone under the planned delays.
	pred, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1},
		[]sim.JobRun{{Job: job, Delays: plan.Delays}})
	if err != nil {
		return nil, err
	}
	p := &GuardPrimer{
		g:            g,
		cluster:      c,
		job:          job,
		delays:       make(map[dag.StageID]float64, len(plan.Delays)),
		pred:         make(map[dag.StageID]sim.StageTimeline, len(pred.Timelines)),
		replans:      map[uint64]map[dag.StageID]float64{},
		crashReplans: map[string]map[dag.StageID]float64{},
	}
	for id, d := range plan.Delays {
		p.delays[id] = d
	}
	for _, tl := range pred.Timelines {
		p.pred[tl.Stage] = tl
	}
	return p, nil
}

// Watchdog returns a fresh stateful guard backed by the primer. Safe to
// call from concurrent sweep cells: the guards share only the immutable
// predictions and the mutex-protected replan cache. The guard assumes it
// watches job index 0 (the single-job case); multi-job runners rebind it
// via bindJob.
func (p *GuardPrimer) Watchdog() sim.Watchdog {
	return &guard{
		mode:   p.g.Mode,
		tol:    p.g.DriftTolerance,
		budget: p.g.ReplanBudget,
		primer: p,
		delays: p.delays,
		pred:   p.pred,
	}
}

// cachedReplan returns the memoized replan schedule for a slowdown scale.
func (p *GuardPrimer) cachedReplan(bits uint64) (map[dag.StageID]float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.replans[bits]
	return d, ok
}

func (p *GuardPrimer) storeReplan(bits uint64, d map[dag.StageID]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.replans[bits] = d
}

// cachedCrashReplan / storeCrashReplan memoize degraded-capacity replans
// by (scale, surviving-node set).
func (p *GuardPrimer) cachedCrashReplan(key string) (map[dag.StageID]float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.crashReplans[key]
	return d, ok
}

func (p *GuardPrimer) storeCrashReplan(key string, d map[dag.StageID]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashReplans[key] = d
}

// guard is the runtime watchdog of one job's plan. The simulator calls it
// synchronously from the event loop, so the per-run state needs no
// locking; delays and pred are the primer's shared maps, read-only here.
type guard struct {
	mode   GuardMode
	tol    float64
	budget time.Duration
	primer *GuardPrimer
	delays map[dag.StageID]float64
	pred   map[dag.StageID]sim.StageTimeline

	// job is the run index this guard watches — needed for cluster-level
	// events (node crashes) that carry no job of their own. Zero for
	// single-job runs; RunJobs rebinds it per job via bindJob.
	job int

	done      bool
	completed map[dag.StageID]bool
	obsDur    float64 // Σ observed stage execution times (End − Start)
	predDur   float64 // Σ predicted, over the same stages
	lost      map[int]bool
}

// bindJob tells the guard which run index it watches (see jobBinder).
func (g *guard) bindJob(job int) { g.job = job }

// StageReadCompleted implements sim.Watchdog: the shuffle read is the
// first phase whose end can be checked against the plan — catching a
// stale plan here lets the guard revoke delays that would have committed
// before the first full stage completion.
func (g *guard) StageReadCompleted(ev sim.WatchEvent) []sim.DelayUpdate {
	if g.done {
		return nil
	}
	p, ok := g.pred[ev.Stage]
	if !ok {
		return nil
	}
	g.obsDur += ev.Timeline.ReadEnd - ev.Timeline.Start
	g.predDur += p.ReadEnd - p.Start
	return g.check(ev.Job, ev.Timeline.ReadEnd-ev.JobStart, p.ReadEnd, ev.Retries)
}

// StageCompleted implements sim.Watchdog: observed completion vs t̂_k.
func (g *guard) StageCompleted(ev sim.WatchEvent) []sim.DelayUpdate {
	if g.done {
		return nil
	}
	if g.completed == nil {
		g.completed = map[dag.StageID]bool{}
	}
	g.completed[ev.Stage] = true
	p, ok := g.pred[ev.Stage]
	if !ok {
		return nil
	}
	g.obsDur += ev.Timeline.End - ev.Timeline.Start
	g.predDur += p.End - p.Start
	return g.check(ev.Job, ev.Timeline.End-ev.JobStart, p.End, ev.Retries)
}

// check compares one observed milestone against its prediction and, past
// the tolerance (or on any absorbed retry), trips the guard.
func (g *guard) check(job int, obs, pred float64, retries int) []sim.DelayUpdate {
	drift := math.Abs(obs-pred) / math.Max(pred, 1e-9)
	if retries == 0 && drift <= g.tol {
		return nil
	}
	g.done = true
	if retries > 0 || g.mode == GuardCancel {
		// Failures make timing unpredictable: replanning against a plan
		// that can lose arbitrary work is guesswork, so both modes take
		// the safe exit and degrade to submit-when-ready.
		return g.cancel(job)
	}
	return g.replan(job)
}

// TaskRetried implements sim.Watchdog: any lost partition voids the plan's
// timing premises — degrade to submit-when-ready immediately rather than
// holding stages for a schedule computed for a cluster that no longer
// exists.
func (g *guard) TaskRetried(job int, _ dag.StageID, _, _ int, _ float64) []sim.DelayUpdate {
	if g.done {
		return nil
	}
	g.done = true
	return g.cancel(job)
}

// NodeCrashed implements sim.CrashWatcher: losing a machine voids the
// plan's capacity premises. GuardCancel degrades to submit-when-ready;
// GuardReplan re-runs Alg. 1 against the surviving nodes only, so the
// remaining delays fit the cluster that actually exists. Unlike the
// timing checks this is not one-shot: every further crash shrinks the
// cluster again and re-triggers the replan.
func (g *guard) NodeCrashed(node int, _ float64) []sim.DelayUpdate {
	if g.lost == nil {
		g.lost = map[int]bool{}
	}
	g.lost[node] = true
	if g.mode == GuardCancel {
		if g.done {
			return nil
		}
		g.done = true
		return g.cancel(g.job)
	}
	g.done = true
	return g.replanDegraded(g.job)
}

// replanDegraded reruns Alg. 1 on the surviving nodes (profiles rescaled
// by any observed slowdown), memoized by the exact (scale, survivors)
// pair. Losing everything — or failing to replan in budget — degrades to
// cancel.
func (g *guard) replanDegraded(job int) []sim.DelayUpdate {
	scale := 1.0
	if g.predDur > 1e-9 && g.obsDur > 1e-9 {
		scale = g.obsDur / g.predDur
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return g.cancel(job)
	}
	full := g.primer.cluster
	degraded := &cluster.Cluster{}
	var key strings.Builder
	fmt.Fprintf(&key, "%x:", math.Float64bits(scale))
	for i, n := range full.Nodes {
		if g.lost[i] {
			continue
		}
		degraded.Nodes = append(degraded.Nodes, n)
		fmt.Fprintf(&key, "%d,", i)
	}
	if len(degraded.Nodes) == 0 {
		return g.cancel(job)
	}
	newDelays, ok := g.primer.cachedCrashReplan(key.String())
	if !ok {
		var err error
		newDelays, err = g.primer.compute(degraded, scale, g.budget)
		if err != nil {
			return g.cancel(job)
		}
		g.primer.storeCrashReplan(key.String(), newDelays)
	}
	return g.reviseTo(job, newDelays)
}

// cancel zeroes every planned delay (the engine ignores updates for
// already-submitted stages).
func (g *guard) cancel(job int) []sim.DelayUpdate {
	out := make([]sim.DelayUpdate, 0, len(g.delays))
	for _, id := range sortedStageIDs(g.delays) {
		out = append(out, sim.DelayUpdate{Job: job, Stage: id, Delay: 0})
	}
	return out
}

// replan reruns Alg. 1 with profiles rescaled by the observed slowdown,
// under the wall-clock budget; the unsubmitted suffix gets the fresh
// delays. Any failure to produce a better answer in time degrades to
// cancel. Alg. 1 is deterministic in the scale, so the recomputed schedule
// is memoized in the primer: sweep cells tripping at the same drift reuse
// it instead of re-running the search. Budget misses are not cached —
// they depend on the machine's momentary load, and a transient miss must
// not poison every later run sharing the primer.
func (g *guard) replan(job int) []sim.DelayUpdate {
	scale := 1.0
	if g.predDur > 1e-9 && g.obsDur > 1e-9 {
		scale = g.obsDur / g.predDur
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return g.cancel(job)
	}
	bits := math.Float64bits(scale)
	newDelays, ok := g.primer.cachedReplan(bits)
	if !ok {
		var err error
		newDelays, err = g.primer.compute(g.primer.cluster, scale, g.budget)
		if err != nil {
			return g.cancel(job)
		}
		g.primer.storeReplan(bits, newDelays)
	}
	return g.reviseTo(job, newDelays)
}

// compute reruns Alg. 1 on the given cluster with profiles rescaled by
// the observed slowdown, under the wall-clock budget. Budget misses are
// errors (callers degrade to cancel and never cache them — they depend
// on the machine's momentary load). The budget doubles as a context
// deadline so a replan that overruns is cancelled — its parallel scan
// goroutines are stopped and joined, not abandoned.
func (p *GuardPrimer) compute(c *cluster.Cluster, scale float64, budget time.Duration) (map[dag.StageID]float64, error) {
	scaled := p.job.Clone()
	if scale != 1 {
		for _, id := range scaled.Graph.Stages() {
			pr := scaled.Profiles[id]
			pr.ProcRate /= scale
			scaled.Profiles[id] = pr
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	inner := p.g.DelayStage
	s, err := core.Compute(core.Options{
		Ctx:              ctx,
		Cluster:          c,
		Order:            inner.Order,
		Seed:             inner.Seed,
		Approximate:      inner.Approximate,
		SlotSeconds:      inner.SlotSeconds,
		MaxCandidates:    inner.MaxCandidates,
		Parallelism:      inner.Parallelism,
		DisableEvalCache: inner.DisableEvalCache,
		Budget:           budget,
	}, scaled)
	if err != nil {
		return nil, err
	}
	if s.BudgetExceeded {
		return nil, fmt.Errorf("scheduler: replan budget %v exceeded", budget)
	}
	return s.Delays, nil
}

// reviseTo revises every stage the old or new plan delays; completed
// stages are skipped (and submitted ones ignored by the engine anyway).
func (g *guard) reviseTo(job int, newDelays map[dag.StageID]float64) []sim.DelayUpdate {
	union := make(map[dag.StageID]float64, len(g.delays))
	for id := range g.delays {
		union[id] = newDelays[id]
	}
	for id, d := range newDelays {
		union[id] = d
	}
	out := make([]sim.DelayUpdate, 0, len(union))
	for _, id := range sortedStageIDs(union) {
		if g.completed[id] {
			continue
		}
		out = append(out, sim.DelayUpdate{Job: job, Stage: id, Delay: union[id]})
	}
	return out
}
