package sim

import "delaystage/internal/dag"

// Observability: the engine emits a typed event at each of its existing
// lifecycle transition points, delivered synchronously (in event-loop
// order, which is deterministic) to an Observer. A nil Observer is the
// default and keeps the engine bit-identical to a build without this
// layer: every emission site is guarded by a nil check, events are stack
// structs passed by value, and nothing is recorded — the zero-alloc
// steady state of TestEngineAllocBudget is unchanged.
//
// Observers must not mutate engine state; they see times and identities,
// not internals. Exporters (JSONL event logs, Chrome trace files, JSON
// run summaries) live in internal/obs on top of this interface.

// EventKind discriminates the engine's lifecycle events.
type EventKind uint8

const (
	// EvStageReady fires when all of a stage's parents have completed
	// (or at job arrival, for roots). Delay timers start here.
	EvStageReady EventKind = iota
	// EvStageSubmitted fires when the stage's shuffle-read items are
	// created on every node — after any configured/revised delay, or
	// early as an AggShuffle prefetch (Prefetch reports which).
	EvStageSubmitted
	// EvReadDone fires per node when that node's shuffle-read partition
	// finishes; the last node's event coincides with Timeline.ReadEnd.
	EvReadDone
	// EvComputeDone fires per node when that node's compute partition
	// finishes; the last node's event coincides with Timeline.ComputeEnd.
	EvComputeDone
	// EvWriteDone fires per node when that node's shuffle-write partition
	// finishes; the last node's event coincides with Timeline.End.
	EvWriteDone
	// EvStageCompleted fires when the shuffle write has finished on every
	// node (Timeline.End).
	EvStageCompleted
	// EvTaskRetry fires when a failed partition attempt is re-queued;
	// Attempt is the 1-based attempt that just died, Delay the backoff
	// before the next one starts.
	EvTaskRetry
	// EvNodeCrash fires when a fault-plan node crash is executed.
	EvNodeCrash
	// EvDelayRevised fires when a watchdog revises a not-yet-submitted
	// stage's delay; Delay is the new delay-after-ready in seconds.
	EvDelayRevised
	// EvJobDone fires when a job's last stage completes.
	EvJobDone
	// EvJobFailed fires when a job aborts after a partition exhausted its
	// retry budget; Detail carries the structured error's text.
	EvJobFailed
	// EvSpecLaunched fires when speculation clones a lagging compute
	// partition; Node is the clone's machine, Attempt the attempt being
	// raced.
	EvSpecLaunched
	// EvSpecWin fires when one twin of a speculation race finishes and
	// the other is cancelled; Node is the winner's machine.
	EvSpecWin
	// EvNodeBlacklisted fires when a node exceeds its fault budget and
	// stops receiving new work.
	EvNodeBlacklisted
)

// String returns the stable, machine-readable name of the kind. These
// names are the JSONL schema's "kind" values — do not repurpose them.
func (k EventKind) String() string {
	switch k {
	case EvStageReady:
		return "stage_ready"
	case EvStageSubmitted:
		return "stage_submitted"
	case EvReadDone:
		return "read_done"
	case EvComputeDone:
		return "compute_done"
	case EvWriteDone:
		return "write_done"
	case EvStageCompleted:
		return "stage_completed"
	case EvTaskRetry:
		return "task_retry"
	case EvNodeCrash:
		return "node_crash"
	case EvDelayRevised:
		return "delay_revised"
	case EvJobDone:
		return "job_done"
	case EvJobFailed:
		return "job_failed"
	case EvSpecLaunched:
		return "spec_launched"
	case EvSpecWin:
		return "spec_win"
	case EvNodeBlacklisted:
		return "node_blacklisted"
	}
	return "unknown"
}

// Event is one engine lifecycle transition. Fields that do not apply to a
// kind hold their zero value, except Node and Stage which are -1 when not
// applicable (stage-level and job-level events have no node; node crashes
// have no stage).
type Event struct {
	// T is the absolute simulation time in seconds.
	T float64
	// Kind discriminates which fields are meaningful.
	Kind EventKind
	// Job is the run index (JobRun order); -1 for cluster-level events
	// (node crashes).
	Job int
	// Stage is the stage ID, or -1 for job- and cluster-level events.
	Stage dag.StageID
	// Node is the node index for per-node events (EvReadDone,
	// EvComputeDone, EvWriteDone, EvTaskRetry, EvNodeCrash), -1 otherwise.
	Node int
	// Attempt is the 1-based attempt that failed (EvTaskRetry only).
	Attempt int
	// Delay is the retry backoff (EvTaskRetry) or the revised
	// delay-after-ready (EvDelayRevised), in seconds.
	Delay float64
	// Prefetch marks an AggShuffle prefetch submission (EvStageSubmitted).
	Prefetch bool
	// Detail is a human-readable annotation (EvJobFailed's error text).
	Detail string
}

// Observer receives engine events synchronously from the event loop, in
// deterministic order. Implementations must be fast and must not call
// back into the simulation.
type Observer interface {
	OnEvent(Event)
}

// Resource identifies one of the three contended cluster resources a work
// item can occupy: the NIC during shuffle read, the executors during
// compute, the local disk during shuffle write.
type Resource uint8

const (
	ResNet Resource = iota
	ResCPU
	ResDisk
)

// String returns the stable name used in reports and metric labels.
func (r Resource) String() string {
	switch r {
	case ResNet:
		return "net"
	case ResCPU:
		return "cpu"
	case ResDisk:
		return "disk"
	}
	return "unknown"
}
