// Package sim is a discrete-event *fluid* simulator of a DAG-analytics
// cluster — the substrate that stands in for the paper's Spark-on-EC2
// testbed. Every stage runs a partition on every worker node; a partition
// walks shuffle-read (network) → compute (executors) → shuffle-write
// (disk), and concurrent consumers of a resource share it max-min fairly,
// matching the equal-share assumption of the paper's model (Sec. 3.1).
//
// The simulator supports the mechanisms all evaluated strategies need:
//
//   - delayed stage submission (DelayStage's X — extra delay after a stage
//     becomes ready),
//   - AggShuffle-style pipelined shuffle, where a child stage prefetches
//     parent output as it is produced (availability ramps with the
//     parent's compute progress and task skew),
//   - multi-job replay with per-job arrival times,
//   - utilization tracking: per-node time series, cluster-wide averages,
//     and per-stage executor occupation (Figs. 5, 12, 13, 17; Tables 3–4).
package sim

import (
	"fmt"
	"math"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
	"delaystage/internal/workload"
)

// Options configures a simulation run.
type Options struct {
	Cluster *cluster.Cluster
	// AggShuffle enables pipelined shuffle prefetching (the baseline of
	// Liu et al., ICDCS'17).
	AggShuffle bool
	// AggShuffleOverhead inflates the compute volume of prefetched stages
	// (proactive aggregation re-processes pushed partials; the paper
	// observes LDA stages getting slower under AggShuffle). Negative
	// means 0; default 0.05 when AggShuffle is on.
	AggShuffleOverhead float64
	// ContentionOverhead is the per-extra-consumer efficiency loss when f
	// consumers share one resource: effective capacity C/(1+α(f−1)).
	// The pure fluid model (α=0) is work-conserving, which understates
	// the cost of synchronized parallel stages (incast, disk seeks,
	// stragglers); the paper's measured stock-Spark timelines include
	// those losses. Negative means 0; default 0.22. The ablation bench
	// BenchmarkContentionOverhead sweeps it.
	ContentionOverhead float64
	// FairByJob shares each resource first equally among jobs, then among
	// a job's stages — the "resources are evenly partitioned among
	// multiple jobs" rule of Sec. 5.3. Off, all consumers share equally.
	FairByJob bool
	// TrackNode selects a node whose CPU/network/disk usage is recorded as
	// a step-function time series (-1 disables tracking).
	TrackNode int
	// TrackOccupancy records per-stage executor occupation segments
	// (Fig. 13). Only meaningful for single-job runs.
	TrackOccupancy bool
	// TrackCluster records cluster-wide usage series: busy-executor
	// fraction, aggregate network and disk rates (Fig. 4a).
	TrackCluster bool
	// MaxTime aborts the run if simulated time exceeds it (safety against
	// pathological inputs). Zero means 30 days.
	MaxTime float64
	// Faults injects task failures, stragglers and node crashes (nil: the
	// perfect world — the engine behaves bit-identically to a build
	// without the fault layer).
	Faults *faults.Injector
	// MaxAttempts bounds the executions of one stage-partition phase
	// (first try + retries). A partition that fails MaxAttempts times
	// fails its job with a *StageFailureError. Zero means 4.
	MaxAttempts int
	// RetryBackoff is the base of the exponential retry backoff: attempt
	// n+1 starts RetryBackoff·2^(n−1) seconds after attempt n failed.
	// Zero means 2 s.
	RetryBackoff float64
	// Speculation enables straggler mitigation: once at least half of a
	// stage's compute partitions have finished, a partition whose
	// projected duration exceeds SpeculationThreshold times the median
	// of the finished ones gets a clone on the least-loaded healthy
	// node. First finisher wins; the loser is cancelled (its death, if
	// doomed, is absorbed without a retry). At most one clone per
	// partition.
	Speculation bool
	// SpeculationThreshold is the lag multiple that triggers a clone
	// (projected duration > threshold × median). Zero means 1.5.
	SpeculationThreshold float64
	// BlacklistAfter, when positive, stops placing new work on a node
	// after it accumulated that many faults (task deaths and crashes).
	// Work logically belonging to a blacklisted node is rerouted to the
	// next healthy node (its shuffle partition still lives there — the
	// fluid model keeps per-node volumes unchanged). Zero disables
	// blacklisting.
	BlacklistAfter int
	// Watchdog observes stage completions and task retries at runtime and
	// may revise the submission delays of not-yet-submitted stages (the
	// guarded DelayStage strategy plugs in here). Nil: no monitoring.
	Watchdog Watchdog
	// Observer receives typed lifecycle events (stage ready/submitted/
	// read-done/compute-done/completed, task retry, node crash, watchdog
	// delay revision, job done/failed) synchronously from the event loop.
	// Nil (the default) is bit-identical to a build without the
	// observability layer and adds no hot-path allocations.
	Observer Observer
}

// WatchEvent is what a Watchdog sees when a stage completes.
type WatchEvent struct {
	Job      int
	Stage    dag.StageID
	Timeline StageTimeline
	// Retries is the number of failed partition attempts the stage
	// absorbed before completing.
	Retries  int
	JobStart float64 // the job's arrival time
	Now      float64
}

// DelayUpdate revises the submission delay of one not-yet-submitted
// stage: its delay-after-ready becomes Delay (already-submitted stages
// ignore updates; a past-due revised time submits immediately).
type DelayUpdate struct {
	Job   int
	Stage dag.StageID
	Delay float64
}

// Watchdog is the runtime plan monitor. All methods may return delay
// revisions; they are called synchronously from the event loop.
// StageReadCompleted fires when a stage's shuffle read finishes on every
// node (Timeline.ReadEnd set, End still zero) — the earliest moment a
// plan's predictions can be checked against reality, typically before
// most planned delays have committed.
type Watchdog interface {
	StageReadCompleted(ev WatchEvent) []DelayUpdate
	StageCompleted(ev WatchEvent) []DelayUpdate
	TaskRetried(job int, stage dag.StageID, node, attempt int, now float64) []DelayUpdate
}

// CrashWatcher is an optional Watchdog extension (type-asserted like
// ShareObserver): NodeCrashed fires when a machine-level crash executes,
// after the lost work is re-queued, so a guarded scheduler can replan the
// remaining delays for the degraded capacity. A Watchdog that does not
// implement it costs nothing.
type CrashWatcher interface {
	NodeCrashed(node int, now float64) []DelayUpdate
}

// StageFailureError reports that a job was aborted because one stage
// partition exhausted its retry budget.
type StageFailureError struct {
	Job      int
	Stage    dag.StageID
	Node     int
	Attempts int
}

func (e *StageFailureError) Error() string {
	return fmt.Sprintf("sim: job %d stage %d: partition on node %d failed after %d attempts",
		e.Job, e.Stage, e.Node, e.Attempts)
}

// JobRun is one job instance inside a simulation.
type JobRun struct {
	Job     *workload.Job
	Arrival float64 // absolute submission time of the job
	// Delays is DelayStage's X: extra seconds to hold a stage after it
	// becomes ready (all parents complete). Missing stages get 0.
	Delays map[dag.StageID]float64
}

// StageTimeline records when one stage of one job moved through its
// lifecycle. All times are absolute simulation seconds.
type StageTimeline struct {
	JobIndex   int
	Stage      dag.StageID
	Ready      float64 // all parents complete (or job arrival for roots)
	Start      float64 // first shuffle-read activity
	ReadEnd    float64 // shuffle read finished on every node
	ComputeEnd float64 // compute finished on every node
	End        float64 // shuffle write finished on every node
	// Retries counts failed partition attempts absorbed by the stage
	// (task failures and node-crash kills; zero in a fault-free run).
	Retries int
}

// Sample is one step of a step-function time series: value V holds from
// time T until the next sample's T.
type Sample struct {
	T float64
	V float64
}

// Series is a step-function time series (per-node usage, occupancy, ...).
type Series []Sample

// NodeUsage is the tracked node's resource usage over time.
type NodeUsage struct {
	CPUBusy  Series // fraction of executors busy, 0..1
	NetRate  Series // ingress bytes/s
	DiskRate Series // write bytes/s
}

// OccupancySegment records executors held by one stage over [From, To).
type OccupancySegment struct {
	JobIndex  int
	Stage     dag.StageID
	From, To  float64
	Executors float64
}

// Result is everything a simulation run produces.
type Result struct {
	// Timelines holds one entry per completed (job, stage), sorted by
	// (job index, stage ID).
	Timelines []StageTimeline
	// JobEnd[i] is the absolute completion time of runs[i]; JobStart[i]
	// its arrival. JCT = JobEnd - JobStart.
	JobEnd   []float64
	JobStart []float64
	// Makespan is max(JobEnd) − min(arrival).
	Makespan float64
	// Tracked node series (empty if TrackNode < 0).
	Node NodeUsage
	// Cluster-wide usage series (empty unless TrackCluster): CPUBusy is
	// the busy-executor fraction, NetRate/DiskRate aggregate bytes/s.
	Cluster NodeUsage
	// Occupancy segments (empty unless TrackOccupancy).
	Occupancy []OccupancySegment
	// Cluster-wide averages over the makespan: AvgCPUUtil is the mean
	// fraction of busy executors, AvgNetUtil / AvgDiskUtil the mean
	// fraction of NIC / disk bandwidth in use, AvgNetRate the mean
	// aggregate network throughput in bytes/s.
	AvgCPUUtil  float64
	AvgNetUtil  float64
	AvgDiskUtil float64
	AvgNetRate  float64
	// Events is the number of simulation events processed.
	Events int
	// Retries is the total number of failed partition attempts across all
	// jobs (zero in a fault-free run).
	Retries int
	// SpecLaunched / SpecWins count speculative clones started and clones
	// (or originals) that won their race; Blacklisted counts nodes taken
	// out of placement. All zero unless the mitigation options are on.
	SpecLaunched int
	SpecWins     int
	Blacklisted  int
	// JobErrors[i] is non-nil (a *StageFailureError) when runs[i] was
	// aborted after a partition exhausted its retry budget; its JobEnd is
	// the abort time and its timelines are partial.
	JobErrors []error
}

// Failed returns job i's structured failure, or nil if it completed.
func (r *Result) Failed(i int) error {
	if i < 0 || i >= len(r.JobErrors) {
		return nil
	}
	return r.JobErrors[i]
}

// JCT returns job i's completion time (end − arrival).
func (r *Result) JCT(i int) float64 { return r.JobEnd[i] - r.JobStart[i] }

// Timeline returns the timeline of (job, stage), or nil.
func (r *Result) Timeline(job int, stage dag.StageID) *StageTimeline {
	for i := range r.Timelines {
		tl := &r.Timelines[i]
		if tl.JobIndex == job && tl.Stage == stage {
			return tl
		}
	}
	return nil
}

// Coarsen collapses a cluster into a single aggregate node. Trace-scale
// replays use it: thousands of jobs against cluster-level capacities is
// the same fluid model at 1/N the event cost.
func Coarsen(c *cluster.Cluster) *cluster.Cluster {
	return &cluster.Cluster{Nodes: []cluster.Node{{
		ID:        0,
		Executors: c.TotalExecutors(),
		NetBW:     c.TotalNetBW(),
		DiskBW:    c.TotalDiskBW(),
	}}}
}

// Run simulates the given jobs and returns the result.
func Run(opt Options, runs []JobRun) (*Result, error) {
	opt, err := prepare(opt, runs)
	if err != nil {
		return nil, err
	}
	e := newEngine(opt, runs)
	defer e.release()
	return e.run()
}

// prepare validates a run configuration and applies the option defaults,
// returning the normalized options. Shared by Run and SnapshotAt so a
// snapshot's engine is constructed under exactly the defaults a direct Run
// would use.
func prepare(opt Options, runs []JobRun) (Options, error) {
	if opt.Cluster == nil {
		return opt, fmt.Errorf("sim: nil cluster")
	}
	if err := opt.Cluster.Validate(); err != nil {
		return opt, err
	}
	if len(runs) == 0 {
		return opt, fmt.Errorf("sim: no jobs")
	}
	for i, r := range runs {
		if err := validateRun(i, r); err != nil {
			return opt, err
		}
	}
	if opt.Faults != nil {
		n := len(opt.Cluster.Nodes)
		for _, cr := range opt.Faults.Crashes() {
			if cr.Node >= n {
				return opt, fmt.Errorf("sim: fault plan crashes node %d but cluster has %d nodes", cr.Node, n)
			}
		}
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 4
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 2
	}
	if opt.SpeculationThreshold == 0 {
		opt.SpeculationThreshold = 1.5
	} else if opt.SpeculationThreshold < 1 || math.IsNaN(opt.SpeculationThreshold) || math.IsInf(opt.SpeculationThreshold, 0) {
		return opt, fmt.Errorf("sim: speculation threshold %v must be ≥1", opt.SpeculationThreshold)
	}
	if opt.BlacklistAfter < 0 {
		return opt, fmt.Errorf("sim: blacklist-after %d must be ≥0", opt.BlacklistAfter)
	}
	if opt.MaxTime <= 0 {
		opt.MaxTime = 30 * 24 * 3600
	}
	if opt.ContentionOverhead == 0 {
		opt.ContentionOverhead = 0.22
	} else if opt.ContentionOverhead < 0 {
		opt.ContentionOverhead = 0
	}
	if opt.AggShuffleOverhead == 0 {
		opt.AggShuffleOverhead = 0.02
	} else if opt.AggShuffleOverhead < 0 {
		opt.AggShuffleOverhead = 0
	}
	return opt, nil
}

// validateRun vets job i of a run list (prepare) or an injected run.
func validateRun(i int, r JobRun) error {
	if r.Job == nil {
		return fmt.Errorf("sim: job %d is nil", i)
	}
	if err := r.Job.Validate(); err != nil {
		return fmt.Errorf("sim: job %d: %w", i, err)
	}
	if r.Arrival < 0 || math.IsNaN(r.Arrival) {
		return fmt.Errorf("sim: job %d has invalid arrival %v", i, r.Arrival)
	}
	for s, d := range r.Delays {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("sim: job %d stage %d has invalid delay %v", i, s, d)
		}
	}
	return nil
}
