// Package scheduler wires the scheduling strategies the paper evaluates
// into the simulator: the stock Spark submit-when-ready policy, the
// AggShuffle pipelined-shuffle baseline (Liu et al., ICDCS'17), the
// Alibaba Fuxi scheduler (balanced placement, no stage interleaving), and
// DelayStage itself in its three path-order variants (Sec. 5.3).
package scheduler

import (
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
	// (nil for open-loop strategies), for sim.Options.Watchdog.
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
	// Order is the execution-path scheduling sequence (default Descending;
	// Random shuffles with seed 0).
	Order core.Order
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
		Cluster:     c,
		Order:       d.Order,
		Approximate: d.Approximate,
	}, job)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Delays: s.Delays, Schedule: s}, nil
}
