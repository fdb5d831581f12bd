package scheduler

import (
	"math"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// DriftTolerance is the relative deviation of an observed stage milestone
// from its prediction beyond which a plan is stale: it trips the guard,
// and it voids a template-cache hit in the scheduling service.
const DriftTolerance = 0.15

// Drift is the relative deviation |obs−pred|/max(pred, 1e-9) of an
// observed milestone from its prediction.
func Drift(obs, pred float64) float64 {
	return math.Abs(obs-pred) / math.Max(pred, 1e-9)
}

// GuardedDelayStage is DelayStage with a runtime watchdog. Alg. 1's delay
// schedule is computed from profiled R_k/s_k/d_k and assumes the predicted
// per-stage completion times t̂_k hold; on a faulty cluster they do not.
// The guard compares each observed stage milestone against the plan's
// prediction: on drift beyond DriftTolerance, on any task failure or on a
// node crash it trips, and the engine cancels the remaining delays,
// degrading the job to stock Spark submit-when-ready — the always-feasible
// x = 0 the paper's never-worse argument rests on. A fault-free run never
// trips the guard and is byte-identical to plain DelayStage.
type GuardedDelayStage struct {
	DelayStage
}

// Name implements Strategy.
func (g GuardedDelayStage) Name() string { return "Guarded" + g.DelayStage.Name() }

// Plan implements Strategy: the inner DelayStage plan plus its Guard.
func (g GuardedDelayStage) Plan(c *cluster.Cluster, job *workload.Job) (Plan, error) {
	plan, err := g.DelayStage.Plan(c, job)
	if err != nil {
		return Plan{}, err
	}
	if plan.Watchdog, err = g.Guard(c, job, plan); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// Guard builds the watchdog of an existing DelayStage plan of job
// (profiles as the planner believed them): the plan's predicted per-stage
// timelines, from one fault-free what-if run of the job alone under the
// planned delays. Its predictions are keyed by stage ID alone, so it
// watches a single-job world. The guard is immutable, so any number of
// runs of the plan, concurrent ones included, can share it. Returns nil
// when the plan delays nothing: submit-when-ready needs no guarding.
func (GuardedDelayStage) Guard(c *cluster.Cluster, job *workload.Job, plan Plan) (sim.Watchdog, error) {
	if len(plan.Delays) == 0 {
		return nil, nil
	}
	pred, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1},
		[]sim.JobRun{{Job: job, Delays: plan.Delays}})
	if err != nil {
		return nil, err
	}
	g := make(guard, len(pred.Timelines))
	for _, tl := range pred.Timelines {
		g[tl.Stage] = tl
	}
	return g, nil
}

// guard is the runtime watchdog of one job's plan: the plan's predicted
// timeline t̂_k of every stage.
type guard map[dag.StageID]sim.StageTimeline

// Trip implements sim.Watchdog. Any lost partition voids the plan's
// timing premises and a lost machine its capacity premises, so a retry or
// a crash trips the guard at once rather than holding stages for a
// schedule computed for a cluster that no longer exists. Otherwise the
// stage's observed read end or completion is checked against its
// prediction: the shuffle read is the first phase whose end can be
// checked, and catching a stale plan there cancels delays that would have
// committed before the first full stage completion.
func (g guard) Trip(ev sim.WatchEvent) bool {
	p, ok := g[ev.Stage]
	var obs, pred float64
	switch ev.Kind {
	case sim.EvReadDone:
		obs, pred = ev.Timeline.ReadEnd, p.ReadEnd
	case sim.EvStageCompleted:
		obs, pred = ev.Timeline.End, p.End
	default:
		return true
	}
	return ok && (ev.Retries > 0 || Drift(obs-ev.JobStart, pred) > DriftTolerance)
}
