// Package sim is a discrete-event *fluid* simulator of a DAG-analytics
// cluster — the substrate that stands in for the paper's Spark-on-EC2
// testbed. Every stage runs a partition on every worker node; a partition
// walks shuffle-read (network) → compute (executors) → shuffle-write
// (disk), and concurrent consumers of a resource share it max-min fairly,
// matching the equal-share assumption of the paper's model (Sec. 3.1).
// A job may instead place each stage on one node (JobRun.Placement): the
// stage then runs a single partition there and reads its parents' output
// over the links between nodes (Options.Links) — the geo-distributed
// setting, where each node is a datacenter.
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
	// Links[i][j] is the bandwidth in bytes/s of the link from node i to
	// node j (i ≠ j; the diagonal is ignored, a node reads from itself
	// over its NIC). A placed stage reads the input of every parent on
	// another node over that node's link into its own; zero means no
	// link. Link reads share a link exactly as NIC reads share a NIC.
	// Nil: no links, so every placed stage must share its parents' node.
	Links [][]float64
	// AggShuffle enables pipelined shuffle prefetching (the baseline of
	// Liu et al., ICDCS'17).
	AggShuffle bool
	// ContentionOverhead is the per-extra-consumer efficiency loss when f
	// consumers share one resource: effective capacity C/(1+α(f−1)).
	// The pure fluid model (α=0) is work-conserving, which understates
	// the cost of synchronized parallel stages (incast, disk seeks,
	// stragglers); the paper's measured stock-Spark timelines include
	// those losses. Negative means 0; zero means
	// DefaultContentionOverhead. The ablation bench
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
	// Watchdog watches each job's run against its plan and may trip it,
	// cancelling the job's remaining delays (the guarded DelayStage
	// strategy plugs in here). Nil: no monitoring.
	Watchdog Watchdog
	// Observer receives typed lifecycle events (stage ready/submitted/
	// read-done/compute-done/completed, task retry, node crash, watchdog
	// delay revision, job done/failed) synchronously from the event loop.
	// Nil (the default) is bit-identical to a build without the
	// observability layer and adds no hot-path allocations. The online
	// service's data plane runs with none: it learns which jobs ended
	// from Stepper.TakeEnded.
	Observer Observer
}

// WatchEvent is what a Watchdog sees at one of its four checkpoints.
type WatchEvent struct {
	// Kind says which checkpoint: EvReadDone (the stage's shuffle read
	// finished on every node; Timeline.ReadEnd set, End still zero),
	// EvStageCompleted (before its children turn ready), EvTaskRetry
	// (after the task_retry event) or EvNodeCrash (after the lost work is
	// re-queued; Job and Stage are −1).
	Kind     EventKind
	Job      int
	Stage    dag.StageID
	Timeline StageTimeline
	// Retries is the number of failed partition attempts the stage
	// absorbed so far.
	Retries  int
	JobStart float64 // the job's arrival time
}

// DelayUpdate revises the submission delay of one not-yet-submitted
// stage: its delay-after-ready becomes Delay (already-submitted stages
// ignore updates; a past-due revised time submits immediately).
type DelayUpdate struct {
	Job   int
	Stage dag.StageID
	Delay float64
}

// Watchdog is the runtime plan monitor, called synchronously from the
// event loop. When Trip returns true the engine cancels the job's
// remaining delays — every job's, on a node crash — by revising each
// stage named in the run's Delays, in ascending stage ID, to 0: the
// always-feasible submit-when-ready. A tripped job is never asked about
// again. The read end is the earliest moment a plan's predictions can be
// checked against reality, typically before most planned delays have
// committed.
type Watchdog interface {
	Trip(ev WatchEvent) bool
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
	// Placement, when non-nil, names the node of every stage: the stage
	// runs one partition there instead of one on every node. It reads
	// each parent's share of its input (workload.Job.AppendInputWeights)
	// over its own NIC when the parent ran on its node and over the
	// parent node's link otherwise, one flow per link; computes on its
	// node's executors; and writes to its node's disk. Placed jobs run
	// without AggShuffle, Faults, Speculation and BlacklistAfter, whose
	// per-node partition logic does not apply to a single partition.
	Placement map[dag.StageID]int
	// Active, when non-nil, masks the job by stage position (one entry
	// per stage, in Graph.StagesView order): the run is the sub-job the
	// active stages induce. Inactive stages are absent — they never
	// become ready, and Fork updates and ReadyTime do not know them — and
	// edges to them are dropped, so a stage whose parents are all
	// inactive is a root. This is how Alg. 1's what-if evaluator sees a
	// job while its paths are still being scheduled, without building the
	// sub-job. A masked placed run reads each active parent's share of
	// the sub-job's input and needs a placement and links only for its
	// active stages and the edges between them. A masked run takes no
	// AggShuffle.
	Active []bool
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
// returning the normalized options. Shared by Run and NewStepper so every
// engine is constructed under exactly the defaults a direct Run would use.
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
	if err := validateLinks(opt); err != nil {
		return opt, err
	}
	for i, r := range runs {
		if err := validateRun(opt, i, r); err != nil {
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
	opt.ContentionOverhead = ContentionAlpha(opt.ContentionOverhead)
	return opt, nil
}

// validateLinks vets the link matrix's shape and capacities.
func validateLinks(opt Options) error {
	if opt.Links == nil {
		return nil
	}
	n := len(opt.Cluster.Nodes)
	if len(opt.Links) != n {
		return fmt.Errorf("sim: links matrix has %d rows for %d nodes", len(opt.Links), n)
	}
	for i, row := range opt.Links {
		if len(row) != n {
			return fmt.Errorf("sim: links row %d has %d entries for %d nodes", i, len(row), n)
		}
		for j, bw := range row {
			if i != j && !(bw >= 0 && !math.IsInf(bw, 0)) {
				return fmt.Errorf("sim: link %d→%d has invalid bandwidth %v", i, j, bw)
			}
		}
	}
	return nil
}

// validatePlacement vets the placement of job i: every stage on a node of
// the cluster, a link with capacity under every cross-node read, and none
// of the options whose per-node partition logic a placed stage lacks. Of
// a masked run, only the active stages and the edges between them count.
func validatePlacement(opt Options, i int, r JobRun) error {
	switch {
	case opt.AggShuffle:
		return fmt.Errorf("sim: job %d is placed: AggShuffle is not supported for placed stages", i)
	case opt.Faults != nil:
		return fmt.Errorf("sim: job %d is placed: Faults are not supported for placed stages", i)
	case opt.Speculation:
		return fmt.Errorf("sim: job %d is placed: Speculation is not supported for placed stages", i)
	case opt.BlacklistAfter > 0:
		return fmt.Errorf("sim: job %d is placed: BlacklistAfter is not supported for placed stages", i)
	}
	n := len(opt.Cluster.Nodes)
	g, ids := r.Job.Graph, r.Job.Graph.StagesView()
	on := func(pos int) bool { return r.Active == nil || r.Active[pos] }
	for pos, id := range ids {
		if !on(pos) {
			continue
		}
		w, ok := r.Placement[id]
		if !ok {
			return fmt.Errorf("sim: job %d stage %d has no placement", i, id)
		}
		if w < 0 || w >= n {
			return fmt.Errorf("sim: job %d stage %d is placed on node %d of a %d-node cluster", i, id, w, n)
		}
	}
	for pos, id := range ids {
		if !on(pos) {
			continue
		}
		dst := r.Placement[id]
		for _, pp := range g.ParentPos(pos) {
			if src := r.Placement[ids[pp]]; on(pp) && src != dst && (opt.Links == nil || !(opt.Links[src][dst] > 0)) {
				return fmt.Errorf("sim: job %d stage %d reads from node %d into node %d, which no link connects", i, id, src, dst)
			}
		}
	}
	return nil
}

// validateRun vets job i of a run list (prepare) or an injected run.
func validateRun(opt Options, i int, r JobRun) error {
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
	if r.Active != nil {
		switch {
		case len(r.Active) != r.Job.Graph.Len():
			return fmt.Errorf("sim: job %d has an active mask of %d entries for %d stages", i, len(r.Active), r.Job.Graph.Len())
		case opt.AggShuffle:
			return fmt.Errorf("sim: job %d is masked: AggShuffle is not supported for masked runs", i)
		}
	}
	if r.Placement != nil {
		return validatePlacement(opt, i, r)
	}
	return nil
}
