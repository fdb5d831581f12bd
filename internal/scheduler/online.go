package scheduler

import (
	"fmt"
	"math"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/perfmodel"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// OnlineOptions configures the multi-job online DelayStage planner — the
// Sec. 6 direction "our work can be easily extended to reducing the
// average job completion time in the multi-job environment", implemented.
//
// Jobs arrive over time on a shared cluster. When a job arrives, its
// delays are chosen against the jobs already committed (whose schedules
// are not revisited — the decision is online), minimizing the *sum of
// completion times* over every job in the system rather than the
// newcomer's alone: a delay that speeds the newcomer by starving a
// running job is rejected by the objective.
//
// Each arrival is planned by core.PlanArrival — Alg. 1's two-tier scan
// with the execution paths in Descending order — against the committed
// jobs' world, which the caller owns and passes to Add.
type OnlineOptions struct {
	Cluster *cluster.Cluster
	// SlotSeconds / MaxCandidates mirror core.Options (0 = 1 s / 16).
	SlotSeconds   float64
	MaxCandidates int
	// FairByJob is the sharing policy of every candidate's simulation:
	// job-first fairness. The caller's committed world must share the
	// same way.
	FairByJob bool
	// DisableBoundPrune turns off the analytic candidate-pruning tier and
	// the drain cutoff (core.Options.DisableBoundPrune) so every
	// candidate is answered by a multi-job simulation drained to its end
	// — the single-tier reference the invariance tests compare against.
	// Plans are byte-identical either way: a pruned candidate's objective
	// lower bound already met the scan-start best, and a cut candidate's
	// live bound the running best, so its exact evaluation provably fails
	// the improve-by-tolerance test.
	DisableBoundPrune bool
	// Approximate prices every candidate from the analytic model instead
	// of simulating the committed runs: the objective becomes Σ
	// committed-job lower bounds + the newcomer's predicted makespan (the
	// Eq. 1–3 per-phase layout). No simulation runs at all during
	// planning — the massive-scale mode behind service
	// ApproximatePlanning. The schedule's StockMakespan and Makespan
	// become predictions, not simulated sums.
	Approximate bool
}

// InvalidArrivalError reports an arrival time the planner cannot accept:
// NaN, ±Inf or negative. NaN is the treacherous case — it slips past a
// plain monotonicity check (`a[i] < a[i-1]` is false for NaN) and then
// poisons every JCT sum downstream — so arrivals are vetted explicitly
// and the rejection is typed for callers (the scheduling service maps it
// to a 400 response).
type InvalidArrivalError struct {
	// Index is the position in the submitted arrivals (0 for single
	// submissions).
	Index int
	Value float64
}

// Error implements error.
func (e *InvalidArrivalError) Error() string {
	return fmt.Sprintf("scheduler: arrival %d is %v (must be finite and ≥ 0)", e.Index, e.Value)
}

// checkArrival vets one arrival value; index only shapes the message.
func checkArrival(index int, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return &InvalidArrivalError{Index: index, Value: v}
	}
	return nil
}

// CheckArrival vets a single arrival value the way PlanOnline does —
// exported so the scheduling service's submit handler can reject NaN/Inf
// before admission instead of discovering it deep in the planner.
func CheckArrival(v float64) error { return checkArrival(0, v) }

// OnlinePlanner plans continuously arriving jobs one at a time against
// the runs already committed — the incremental core of PlanOnline,
// exposed so a long-running scheduler daemon (internal/service) can admit
// and plan jobs as they arrive instead of replanning the whole batch.
// It holds no simulation: the caller runs the committed world and hands
// it to Add, which only forks it.
//
// Not safe for concurrent use; callers serialize (the service's planning
// stage holds its own lock).
type OnlinePlanner struct {
	opt    OnlineOptions
	coarse *cluster.Cluster

	committed []sim.JobRun
	// last is the highest arrival committed so far; Add and Commit
	// enforce non-decreasing submission order. It survives Reset so a new
	// busy-period epoch cannot rewind time.
	last float64
	// lbSum is Σ analytic JCT lower bounds over committed[:lbSynced] —
	// the constant the pruning tier charges for the already-committed
	// jobs regardless of how a newcomer's delays interleave with them (a
	// job can never beat its own solo critical path or aggregate work,
	// and contention only slows it). Only Add reads it, so Add folds the
	// runs committed since its last call in lazily, in commit order (the
	// same additions in the same order as folding at commit time); a busy
	// period that ends before its next Add never builds their bounds.
	// Reset clears it.
	lbSum    float64
	lbSynced int
}

// NewOnlinePlanner validates the configuration and returns an empty
// planner.
func NewOnlinePlanner(opt OnlineOptions) (*OnlinePlanner, error) {
	if opt.Cluster == nil {
		return nil, fmt.Errorf("scheduler: nil cluster")
	}
	if opt.MaxCandidates <= 0 {
		opt.MaxCandidates = 16
	}
	if err := opt.Cluster.Validate(); err != nil {
		return nil, err
	}
	return &OnlinePlanner{opt: opt, coarse: sim.Coarsen(opt.Cluster)}, nil
}

// Committed returns the runs planned so far, in arrival order, ready to
// simulate. The slice is a view: it grows on the next Add/Commit.
func (p *OnlinePlanner) Committed() []sim.JobRun { return p.committed }

// Reset drops every committed run while keeping the arrival watermark.
// Only valid when the caller knows the cluster is idle (every committed
// job has finished): completed jobs' JCTs are constants of the objective
// and jobs that no longer overlap any live run cannot perturb a
// newcomer's evaluation, so dropping them bounds planning cost by the
// busy-period length instead of the daemon's lifetime.
func (p *OnlinePlanner) Reset() {
	p.committed = p.committed[:0]
	p.lbSum, p.lbSynced = 0, 0
}

// Commit appends an externally planned run — a plan-template cache hit or
// a queue-revision decision — without running the delay sweep, so later
// arrivals are planned against it. Like a run Add returns, the caller
// puts it into the committed world it passes to later Adds.
func (p *OnlinePlanner) Commit(job *workload.Job, arrival float64, delays map[dag.StageID]float64) (sim.JobRun, error) {
	if err := p.admit(job, arrival); err != nil {
		return sim.JobRun{}, err
	}
	return p.commit(sim.JobRun{Job: job, Arrival: arrival, Delays: delays}), nil
}

// commit appends a vetted run; its lower bound joins lbSum at the next
// Add (committedBound).
func (p *OnlinePlanner) commit(run sim.JobRun) sim.JobRun {
	p.committed = append(p.committed, run)
	p.last = run.Arrival
	return run
}

// committedBound folds the analytic JCT lower bound of every run
// committed since the last call into lbSum, in commit order, and returns
// the sum. Validation already passed in admit, so a bound's construction
// cannot fail; a zero contribution on the impossible path keeps lbSum
// sound (it may only ever under-charge).
func (p *OnlinePlanner) committedBound() float64 {
	for ; p.lbSynced < len(p.committed); p.lbSynced++ {
		run := p.committed[p.lbSynced]
		if b, err := perfmodel.NewBoundEvaluator(p.coarse, run.Job, perfmodel.BoundConfig{IncludeWorkBound: true}); err == nil {
			p.lbSum += b.Lower(run.Delays)
		}
	}
	return p.lbSum
}

// admit vets one (job, arrival) pair against the planner's invariants.
func (p *OnlinePlanner) admit(job *workload.Job, arrival float64) error {
	if job == nil {
		return fmt.Errorf("scheduler: job %d is nil", len(p.committed))
	}
	if err := job.Validate(); err != nil {
		return fmt.Errorf("scheduler: job %d: %w", len(p.committed), err)
	}
	if err := checkArrival(len(p.committed), arrival); err != nil {
		return err
	}
	if arrival < p.last {
		return fmt.Errorf("scheduler: arrivals must be non-decreasing (%v after %v)", arrival, p.last)
	}
	return nil
}

// Add plans one job against the committed runs, commits it and returns
// the planned run with the schedule core.PlanArrival planned it from:
// its planning work, its search space (K, Paths) and the objective of
// submit-when-ready (StockMakespan) and of its delays (Makespan). world
// is the committed runs' simulation, on the planner's coarse cluster view
// (sim.Coarsen) and sharing as FairByJob says, paused (AdvanceBefore)
// just before arrival; nil when nothing is committed. It is only forked.
// The delay sweep minimizes the sum of completion times over every
// committed job plus the newcomer, pricing each candidate exactly on
// forks of world or, in approximate mode, as Σ committed lower bounds +
// the newcomer's predicted JCT (world is then not read).
//
// The run is never worse than submitting everything immediately: unless
// the schedule's delays beat StockMakespan by more than
// sim.ScanTolerance, it is committed with nil delays. That never-worse
// fallback fired exactly when the run's Delays are nil while sched.K is
// non-empty; the committed objective is then StockMakespan.
func (p *OnlinePlanner) Add(job *workload.Job, arrival float64, world *sim.Stepper) (sim.JobRun, *core.Schedule, error) {
	if err := p.admit(job, arrival); err != nil {
		return sim.JobRun{}, nil, err
	}
	sched, err := core.PlanArrival(core.Options{Cluster: p.coarse, SlotSeconds: p.opt.SlotSeconds,
		MaxCandidates: p.opt.MaxCandidates, DisableBoundPrune: p.opt.DisableBoundPrune,
		Approximate: p.opt.Approximate}, job,
		core.Arrival{World: world, At: arrival, FairByJob: p.opt.FairByJob, Committed: p.committedBound()})
	if err != nil {
		return sim.JobRun{}, nil, err
	}
	run := sim.JobRun{Job: job, Arrival: arrival}
	if len(sched.Delays) > 0 && sched.Makespan < sched.StockMakespan-sim.ScanTolerance {
		run.Delays = sched.Delays
	}
	return p.commit(run), sched, nil
}

// PlanOnline plans every job in arrival order and returns the runs ready
// to simulate. len(jobs) must equal len(arrivals); arrivals must be
// finite, non-negative (*InvalidArrivalError otherwise) and non-decreasing
// (sort first if needed). Outside approximate mode it grows the committed
// world Add forks as the runs commit: the first run starts it, each later
// one joins it at its arrival (AdvanceBefore + Inject).
func PlanOnline(opt OnlineOptions, jobs []*workload.Job, arrivals []float64) ([]sim.JobRun, error) {
	if len(jobs) != len(arrivals) {
		return nil, fmt.Errorf("scheduler: %d jobs but %d arrivals", len(jobs), len(arrivals))
	}
	p, err := NewOnlinePlanner(opt)
	if err != nil {
		return nil, err
	}
	var world *sim.Stepper
	defer func() {
		if world != nil {
			world.Close()
		}
	}()
	for i, job := range jobs {
		if world != nil {
			// Vet the arrival before the world moves to it.
			if err := checkArrival(i, arrivals[i]); err != nil {
				return nil, err
			}
			if err := world.AdvanceBefore(arrivals[i]); err != nil {
				return nil, err
			}
		}
		run, _, err := p.Add(job, arrivals[i], world)
		if err == nil && !opt.Approximate {
			if world == nil {
				world, err = sim.NewStepper(sim.Options{Cluster: p.coarse, TrackNode: -1, FairByJob: opt.FairByJob}, []sim.JobRun{run})
			} else {
				err = world.Inject(run)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return p.Committed(), nil
}
