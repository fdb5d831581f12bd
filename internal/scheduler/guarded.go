package scheduler

import (
	"math"
	"sort"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// driftTolerance is the relative deviation of an observed stage milestone
// from its prediction that trips the guard.
const driftTolerance = 0.15

// GuardedDelayStage is DelayStage with a runtime watchdog. Alg. 1's delay
// schedule is computed from profiled R_k/s_k/d_k and assumes the predicted
// per-stage completion times t̂_k hold; on a faulty cluster they do not.
// The guard compares each observed stage milestone against the plan's
// prediction: on drift beyond 15%, on any task failure or on a node crash
// it stops trusting the remaining delays and cancels them, degrading the
// job to stock Spark submit-when-ready — the always-feasible x = 0 the
// paper's never-worse argument rests on. A fault-free run never trips the
// guard and is byte-identical to plain DelayStage.
type GuardedDelayStage struct {
	DelayStage
}

// Name implements Strategy.
func (g GuardedDelayStage) Name() string { return "Guarded" + g.DelayStage.Name() }

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
// plan's predicted timelines instead of recomputing them. Returns nil when
// the plan delays nothing: submit-when-ready needs no guarding.
func (g GuardedDelayStage) WatchdogFor(c *cluster.Cluster, job *workload.Job, plan Plan) (sim.Watchdog, error) {
	p, err := g.Primer(c, job, plan)
	if err != nil || p == nil {
		return nil, err
	}
	return p.Watchdog(), nil
}

// GuardPrimer holds what the watchdogs of one (cluster, job, plan) triple
// share, immutable once built: the plan's delayed stages and its
// predicted per-stage timelines (one fault-free what-if simulation).
type GuardPrimer struct {
	delayed []dag.StageID // the plan's delayed stages, ascending
	pred    map[dag.StageID]sim.StageTimeline
}

// Primer precomputes the shared watchdog state for an existing plan.
// Returns (nil, nil) when the plan delays nothing.
func (g GuardedDelayStage) Primer(c *cluster.Cluster, job *workload.Job, plan Plan) (*GuardPrimer, error) {
	if len(plan.Delays) == 0 {
		return nil, nil
	}
	// Predict the per-stage timelines the plan promises: a fault-free
	// what-if run of this job alone under the planned delays.
	pred, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1},
		[]sim.JobRun{{Job: job, Delays: plan.Delays}})
	if err != nil {
		return nil, err
	}
	p := &GuardPrimer{
		delayed: sortedStageIDs(plan.Delays),
		pred:    make(map[dag.StageID]sim.StageTimeline, len(pred.Timelines)),
	}
	for _, tl := range pred.Timelines {
		p.pred[tl.Stage] = tl
	}
	return p, nil
}

// Watchdog returns a fresh stateful guard backed by the primer. Safe to
// call from concurrent sweep cells: the guards share only the primer's
// immutable state. A guard watches run 0 of a single-job world.
func (p *GuardPrimer) Watchdog() sim.Watchdog { return &guard{primer: p} }

// guard is the runtime watchdog of one job's plan. The simulator calls it
// synchronously from the event loop, so its one flag needs no locking.
type guard struct {
	primer *GuardPrimer
	done   bool
}

// StageReadCompleted implements sim.Watchdog: the shuffle read is the
// first phase whose end can be checked against the plan — catching a
// stale plan here lets the guard revoke delays that would have committed
// before the first full stage completion.
func (g *guard) StageReadCompleted(ev sim.WatchEvent) []sim.DelayUpdate {
	p, ok := g.primer.pred[ev.Stage]
	if g.done || !ok {
		return nil
	}
	return g.check(ev.Timeline.ReadEnd-ev.JobStart, p.ReadEnd, ev.Retries)
}

// StageCompleted implements sim.Watchdog: observed completion vs t̂_k.
func (g *guard) StageCompleted(ev sim.WatchEvent) []sim.DelayUpdate {
	p, ok := g.primer.pred[ev.Stage]
	if g.done || !ok {
		return nil
	}
	return g.check(ev.Timeline.End-ev.JobStart, p.End, ev.Retries)
}

// check compares one observed milestone against its prediction and, past
// the tolerance (or on any absorbed retry), trips the guard.
func (g *guard) check(obs, pred float64, retries int) []sim.DelayUpdate {
	drift := math.Abs(obs-pred) / math.Max(pred, 1e-9)
	if retries == 0 && drift <= driftTolerance {
		return nil
	}
	return g.cancel()
}

// TaskRetried implements sim.Watchdog: any lost partition voids the plan's
// timing premises — degrade to submit-when-ready immediately rather than
// holding stages for a schedule computed for a cluster that no longer
// exists.
func (g *guard) TaskRetried(int, dag.StageID, int, int, float64) []sim.DelayUpdate {
	return g.cancel()
}

// NodeCrashed implements sim.CrashWatcher: losing a machine voids the
// plan's capacity premises, so the guard degrades to submit-when-ready.
func (g *guard) NodeCrashed(int, float64) []sim.DelayUpdate { return g.cancel() }

// cancel trips the guard once, zeroing every planned delay (the engine
// ignores updates for already-submitted stages).
func (g *guard) cancel() []sim.DelayUpdate {
	if g.done {
		return nil
	}
	g.done = true
	out := make([]sim.DelayUpdate, len(g.primer.delayed))
	for i, id := range g.primer.delayed {
		out[i] = sim.DelayUpdate{Stage: id}
	}
	return out
}

// sortedStageIDs returns a delay map's keys in ascending order, for
// deterministic update emission.
func sortedStageIDs(m map[dag.StageID]float64) []dag.StageID {
	ids := make([]dag.StageID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
