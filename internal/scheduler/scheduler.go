// Package scheduler wires the scheduling strategies the paper evaluates
// into the simulator: the stock Spark submit-when-ready policy, the
// AggShuffle pipelined-shuffle baseline (Liu et al., ICDCS'17), the
// Alibaba Fuxi scheduler (balanced placement, no stage interleaving), and
// DelayStage itself in its three path-order variants (Sec. 5.3).
package scheduler

import (
	"fmt"
	"sort"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Plan is a strategy's decision for one job: submission delays plus
// whether the simulator should pipeline shuffles.
type Plan struct {
	Delays     map[dag.StageID]float64
	AggShuffle bool
	// Schedule carries DelayStage's full Alg. 1 output when the strategy
	// is a DelayStage variant (nil otherwise).
	Schedule *core.Schedule
	// Watchdog is the runtime plan monitor a guarded strategy attaches
	// (nil for open-loop strategies). RunJob / RunJobs hand it to the
	// simulator.
	Watchdog sim.Watchdog
}

// Strategy decides when stages are submitted.
type Strategy interface {
	// Name is the label used in tables and figures.
	Name() string
	// Plan computes the job's scheduling plan on the given cluster.
	Plan(c *cluster.Cluster, job *workload.Job) (Plan, error)
}

// Spark is the stock Spark stage scheduler: a stage is submitted the
// moment it has acquired all its shuffle input (all parents complete).
type Spark struct{}

// Name implements Strategy.
func (Spark) Name() string { return "Spark" }

// Plan implements Strategy: no delays, no pipelining.
func (Spark) Plan(*cluster.Cluster, *workload.Job) (Plan, error) { return Plan{}, nil }

// AggShuffle proactively transfers map outputs to child stages as they are
// produced, pipelining the shuffle over the network. Its benefit depends
// on task-duration heterogeneity within the parent stage.
type AggShuffle struct{}

// Name implements Strategy.
func (AggShuffle) Name() string { return "AggShuffle" }

// Plan implements Strategy: immediate submission with pipelined shuffle.
func (AggShuffle) Plan(*cluster.Cluster, *workload.Job) (Plan, error) {
	return Plan{AggShuffle: true}, nil
}

// Fuxi models the Alibaba Fuxi scheduler used as the baseline of the
// trace-driven simulation (Sec. 5.3): tasks are spread uniformly across
// workers to balance load, but stages are still submitted the moment they
// are ready — no stage-level interleaving. In the symmetric fluid model,
// balanced placement is the default, so Fuxi's plan coincides with stock
// Spark's; the type exists so replays and tables carry the right label.
type Fuxi struct{}

// Name implements Strategy.
func (Fuxi) Name() string { return "Fuxi" }

// Plan implements Strategy.
func (Fuxi) Plan(*cluster.Cluster, *workload.Job) (Plan, error) { return Plan{}, nil }

// DelayStage runs Alg. 1 to compute submission delays for parallel stages.
type DelayStage struct {
	// Order is the execution-path scheduling sequence (default Descending).
	Order core.Order
	// Seed drives the Random order.
	Seed int64
	// SlotSeconds / MaxCandidates tune the delay scan (0 = defaults).
	SlotSeconds   float64
	MaxCandidates int
	// Parallelism evaluates delay candidates on that many goroutines
	// (0/1 = sequential). The plan is bit-identical at any setting.
	Parallelism int
	// DisableEvalCache turns off the what-if memo cache and snapshot
	// forking in the sim evaluator (see core.Options.DisableEvalCache);
	// plans are identical either way.
	DisableEvalCache bool
	// Approximate plans from the analytic model's prediction instead of
	// what-if simulation (see core.Options.Approximate; used for
	// trace-scale jobs).
	Approximate bool
}

// Name implements Strategy.
func (d DelayStage) Name() string {
	if d.Order == core.Descending {
		return "DelayStage"
	}
	return "DelayStage-" + d.Order.String()
}

// Plan implements Strategy: it runs the delay-time calculator.
func (d DelayStage) Plan(c *cluster.Cluster, job *workload.Job) (Plan, error) {
	s, err := core.Compute(core.Options{
		Cluster:          c,
		Order:            d.Order,
		Seed:             d.Seed,
		SlotSeconds:      d.SlotSeconds,
		MaxCandidates:    d.MaxCandidates,
		Parallelism:      d.Parallelism,
		DisableEvalCache: d.DisableEvalCache,
		Approximate:      d.Approximate,
	}, job)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Delays: s.Delays, Schedule: s}, nil
}

// RunJob plans and simulates one job under a strategy.
func RunJob(c *cluster.Cluster, job *workload.Job, s Strategy, opt sim.Options) (*sim.Result, error) {
	plan, err := s.Plan(c, job)
	if err != nil {
		return nil, fmt.Errorf("scheduler %s: %w", s.Name(), err)
	}
	opt.Cluster = c
	opt.AggShuffle = plan.AggShuffle
	if plan.Watchdog != nil {
		opt.Watchdog = plan.Watchdog
	}
	return sim.Run(opt, []sim.JobRun{{Job: job, Delays: plan.Delays}})
}

// RunJobs plans each job independently and simulates them together with
// the given arrival times — the multi-job replay mode of Sec. 5.3.
func RunJobs(c *cluster.Cluster, jobs []*workload.Job, arrivals []float64, s Strategy, opt sim.Options) (*sim.Result, error) {
	if len(jobs) != len(arrivals) {
		return nil, fmt.Errorf("scheduler: %d jobs but %d arrivals", len(jobs), len(arrivals))
	}
	runs := make([]sim.JobRun, len(jobs))
	guards := map[int]sim.Watchdog{}
	for i, j := range jobs {
		plan, err := s.Plan(c, j)
		if err != nil {
			return nil, fmt.Errorf("scheduler %s job %d: %w", s.Name(), i, err)
		}
		if plan.AggShuffle {
			opt.AggShuffle = true
		}
		if plan.Watchdog != nil {
			if b, ok := plan.Watchdog.(jobBinder); ok {
				b.bindJob(i)
			}
			guards[i] = plan.Watchdog
		}
		runs[i] = sim.JobRun{Job: j, Arrival: arrivals[i], Delays: plan.Delays}
	}
	if len(guards) > 0 {
		opt.Watchdog = muxWatchdog(guards)
	}
	opt.Cluster = c
	return sim.Run(opt, runs)
}

// muxWatchdog fans simulator events out to per-job watchdogs (each
// strategy Plan call produced one for its own job).
type muxWatchdog map[int]sim.Watchdog

// StageReadCompleted implements sim.Watchdog.
func (m muxWatchdog) StageReadCompleted(ev sim.WatchEvent) []sim.DelayUpdate {
	if w := m[ev.Job]; w != nil {
		return w.StageReadCompleted(ev)
	}
	return nil
}

// StageCompleted implements sim.Watchdog.
func (m muxWatchdog) StageCompleted(ev sim.WatchEvent) []sim.DelayUpdate {
	if w := m[ev.Job]; w != nil {
		return w.StageCompleted(ev)
	}
	return nil
}

// TaskRetried implements sim.Watchdog.
func (m muxWatchdog) TaskRetried(job int, stage dag.StageID, node, attempt int, now float64) []sim.DelayUpdate {
	if w := m[job]; w != nil {
		return w.TaskRetried(job, stage, node, attempt, now)
	}
	return nil
}

// NodeCrashed implements sim.CrashWatcher: a machine loss is cluster-wide,
// so it fans out to every per-job guard that watches for crashes, in job
// order for deterministic update emission.
func (m muxWatchdog) NodeCrashed(node int, now float64) []sim.DelayUpdate {
	jobs := make([]int, 0, len(m))
	for j := range m {
		jobs = append(jobs, j)
	}
	sort.Ints(jobs)
	var out []sim.DelayUpdate
	for _, j := range jobs {
		if cw, ok := m[j].(sim.CrashWatcher); ok {
			out = append(out, cw.NodeCrashed(node, now)...)
		}
	}
	return out
}

// jobBinder lets multi-job runners tell a per-job watchdog which run index
// it watches — needed for cluster-level events that carry no job.
type jobBinder interface{ bindJob(job int) }

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
