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
type OnlineOptions struct {
	Cluster *cluster.Cluster
	// Order is the execution-path order used for each job (default
	// Descending).
	Order core.Order
	// SlotSeconds / MaxCandidates mirror core.Options (0 = 1 s / 16).
	SlotSeconds   float64
	MaxCandidates int
	// FairByJob carries through to the evaluation and final simulation.
	FairByJob bool
	// DisableBoundPrune turns off the analytic candidate-pruning tier so
	// every candidate is answered by a full multi-job simulation — the
	// single-tier reference the invariance tests compare against. Plans
	// are byte-identical either way: a pruned candidate's objective lower
	// bound already met the running best, so its exact evaluation provably
	// fails the improve-by-tolerance test.
	DisableBoundPrune bool
	// Approximate scores every candidate from the analytic model instead
	// of simulating the committed runs: the objective becomes Σ
	// committed-job lower bounds + the newcomer's predicted makespan (the
	// Eq. 1–3 per-phase layout). No simulation runs at all during
	// planning — the massive-scale mode behind service
	// ApproximatePlanning. IncumbentTotal/ChosenTotal become predictions,
	// not simulated sums.
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

// PlanAudit records how the most recent Add reached its decision — the
// per-decision visibility the scheduling service attaches to a job's plan
// span (GET /v1/trace/{id}). Valid after Add returns nil; Commit (cache
// hits, queue revisions) does not touch it.
type PlanAudit struct {
	// Evaluations counts full objective evaluations this Add performed,
	// the submit-when-ready incumbent included. Zero for trivial DAGs
	// (no delay-eligible stage: the sweep never ran).
	Evaluations int
	// ParallelStages and Paths size the Alg. 1 search space: how many
	// stages were delay-eligible, over how many execution paths.
	ParallelStages int
	Paths          int
	// IncumbentTotal is the objective (Σ JCT over committed jobs plus the
	// newcomer) with nil delays — the submit-when-ready incumbent.
	// ChosenTotal is the committed plan's objective value; it equals
	// IncumbentTotal whenever FallbackNoWin fired.
	IncumbentTotal float64
	ChosenTotal    float64
	// FallbackNoWin reports that the never-worse guard discarded the
	// sweep's delays: no candidate beat the incumbent beyond tolerance,
	// so the job was committed submit-when-ready.
	FallbackNoWin bool
	// Prune breaks the two-tier candidate scan down: Bounded candidates
	// received an analytic objective lower bound, Pruned ones were
	// eliminated by it before any simulation, and the rest were answered
	// exactly (Exact) or by the analytic model (Approx, approximate
	// mode). Evaluations == Exact + Approx.
	Prune core.PruneStats
}

// OnlinePlanner plans continuously arriving jobs one at a time against
// the runs already committed — the incremental core of PlanOnline,
// exposed so a long-running scheduler daemon (internal/service) can admit
// and plan jobs as they arrive instead of replanning the whole batch.
//
// Not safe for concurrent use; callers serialize (the service's planning
// stage holds its own lock).
type OnlinePlanner struct {
	opt    OnlineOptions
	coarse *cluster.Cluster
	model  *perfmodel.Model
	audit  PlanAudit

	committed []sim.JobRun
	// scratch is reused across the thousands of candidate evaluations one
	// planning pass makes (sim.Run does not retain it): committed only
	// grows when a job is sealed, so per candidate only the last element
	// changes.
	scratch []sim.JobRun
	// last is the highest arrival committed so far; Add and Commit
	// enforce non-decreasing submission order. It survives Reset so a new
	// busy-period epoch cannot rewind time.
	last float64
	// lbSum is Σ analytic JCT lower bounds over the committed runs — the
	// constant the pruning tier charges for the already-committed jobs
	// regardless of how a newcomer's delays interleave with them (a job
	// can never beat its own solo critical path or aggregate work, and
	// contention only slows it). Maintained incrementally on Add/Commit,
	// cleared by Reset.
	lbSum float64
}

// NewOnlinePlanner validates the configuration and returns an empty
// planner.
func NewOnlinePlanner(opt OnlineOptions) (*OnlinePlanner, error) {
	if opt.Cluster == nil {
		return nil, fmt.Errorf("scheduler: nil cluster")
	}
	if opt.SlotSeconds <= 0 {
		opt.SlotSeconds = 1
	}
	if opt.MaxCandidates <= 0 {
		opt.MaxCandidates = 16
	}
	coarse := sim.Coarsen(opt.Cluster)
	model, err := perfmodel.New(coarse)
	if err != nil {
		return nil, err
	}
	return &OnlinePlanner{opt: opt, coarse: coarse, model: model}, nil
}

// Committed returns the runs planned so far, in arrival order, ready for
// sim.Run. The slice is a view: it grows on the next Add/Commit.
func (p *OnlinePlanner) Committed() []sim.JobRun { return p.committed }

// LastArrival returns the highest arrival committed so far.
func (p *OnlinePlanner) LastArrival() float64 { return p.last }

// LastAudit returns the decision audit of the most recent successful Add.
func (p *OnlinePlanner) LastAudit() PlanAudit { return p.audit }

// Reset drops every committed run while keeping the arrival watermark.
// Only valid when the caller knows the cluster is idle (every committed
// job has finished): completed jobs' JCTs are constants of the objective
// and jobs that no longer overlap any live run cannot perturb a
// newcomer's evaluation, so dropping them bounds planning cost by the
// busy-period length instead of the daemon's lifetime.
func (p *OnlinePlanner) Reset() {
	p.committed = p.committed[:0]
	p.scratch = p.scratch[:0]
	p.lbSum = 0
}

// Commit appends an externally planned run — a plan-template cache hit or
// a queue-revision decision — without running the delay sweep, so later
// arrivals are planned against it.
func (p *OnlinePlanner) Commit(job *workload.Job, arrival float64, delays map[dag.StageID]float64) (sim.JobRun, error) {
	if err := p.admit(job, arrival); err != nil {
		return sim.JobRun{}, err
	}
	run := sim.JobRun{Job: job, Arrival: arrival, Delays: delays}
	p.committed = append(p.committed, run)
	p.commitLB(run)
	p.last = arrival
	return run, nil
}

// commitLB accumulates the newly committed run's analytic JCT lower bound
// into lbSum. Validation already passed in admit, so construction cannot
// fail; a zero contribution on the impossible path keeps lbSum sound (it
// may only ever under-charge).
func (p *OnlinePlanner) commitLB(run sim.JobRun) {
	b, err := perfmodel.NewBoundEvaluator(p.coarse, run.Job, perfmodel.BoundConfig{IncludeWorkBound: true})
	if err != nil {
		return
	}
	p.lbSum += b.Lower(run.Delays)
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

// evalTotal simulates the committed runs plus the candidate and returns
// Σ (end − arrival) over all jobs.
func (p *OnlinePlanner) evalTotal(candidate sim.JobRun) (float64, error) {
	p.scratch = append(append(p.scratch[:0], p.committed...), candidate)
	runs := p.scratch
	res, err := sim.Run(sim.Options{Cluster: p.coarse, TrackNode: -1, FairByJob: p.opt.FairByJob}, runs)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i := range runs {
		total += res.JCT(i)
	}
	return total, nil
}

// score answers one candidate configuration's objective value and counts
// the evaluation: a full multi-job simulation normally, or the analytic
// model (committed lower bounds + the newcomer's predicted makespan) in
// approximate mode.
func (p *OnlinePlanner) score(candidate sim.JobRun, bev *perfmodel.BoundEvaluator) (float64, error) {
	p.audit.Evaluations++
	if p.opt.Approximate {
		p.audit.Prune.Approx++
		return p.lbSum + bev.Predict(candidate.Delays), nil
	}
	p.audit.Prune.Exact++
	return p.evalTotal(candidate)
}

// Add plans one job against the committed runs, commits it and returns
// the planned run. The delay sweep minimizes the sum of completion times
// over every committed job plus the newcomer.
func (p *OnlinePlanner) Add(job *workload.Job, arrival float64) (sim.JobRun, error) {
	if err := p.admit(job, arrival); err != nil {
		return sim.JobRun{}, err
	}
	reach, err := dag.NewReachability(job.Graph)
	if err != nil {
		return sim.JobRun{}, err
	}
	solo := p.model.SoloTimes(job)
	weight := func(id dag.StageID) float64 { return solo[id] }
	k := dag.ParallelStages(job.Graph, reach)
	run := sim.JobRun{Job: job, Arrival: arrival}
	p.audit = PlanAudit{ParallelStages: len(k)}
	if len(k) == 0 {
		p.committed = append(p.committed, run)
		p.commitLB(run)
		p.last = arrival
		return run, nil
	}
	// The analytic tier: bounds the newcomer's share of the objective so
	// hopeless candidates never reach a simulation (and, in approximate
	// mode, scores candidates outright — the work term is then left out,
	// being sound only against the simulator).
	var bev *perfmodel.BoundEvaluator
	if !p.opt.DisableBoundPrune || p.opt.Approximate {
		bev, err = perfmodel.NewBoundEvaluator(p.coarse, job, perfmodel.BoundConfig{IncludeWorkBound: !p.opt.Approximate})
		if err != nil {
			return sim.JobRun{}, err
		}
	}
	paths := dag.ExecutionPaths(job.Graph, reach, weight)
	switch p.opt.Order {
	case core.Ascending:
		dag.SortPathsAscending(paths, weight)
	default:
		dag.SortPathsDescending(paths, weight)
	}

	delays := map[dag.StageID]float64{}
	run.Delays = delays
	stockTotal, err := p.score(run, bev)
	if err != nil {
		return sim.JobRun{}, err
	}
	p.audit.Paths = len(paths)
	best := stockTotal
	soloSum := 0.0
	for _, id := range k {
		soloSum += solo[id]
	}
	// Two sweeps: greedy then one refinement (staleness correction).
	for pass := 0; pass < 2; pass++ {
		seen := map[dag.StageID]bool{}
		for _, path := range paths {
			for _, kid := range path.Stages {
				if seen[kid] {
					continue
				}
				seen[kid] = true
				upper := math.Max(0, soloSum-solo[kid])
				n := int(upper/p.opt.SlotSeconds) + 1
				if n > p.opt.MaxCandidates {
					n = p.opt.MaxCandidates
				}
				step := upper
				if n > 1 {
					step = upper / float64(n-1)
				}
				bestDelay := delays[kid]
				// One ScanLower prep per stage makes the per-candidate
				// objective bound O(1): lbSum charges the committed jobs,
				// max(rest, through+x) charges the newcomer. Unlike
				// core.Compute's parallel scan, Add is strictly sequential,
				// so pruning against the *running* best is byte-identity
				// safe: a candidate with lb ≥ best could never pass the
				// improve-by-tolerance test when evaluated in order.
				through, rest, prunable := 0.0, 0.0, false
				if bev != nil && n > 1 {
					through, rest, prunable = bev.ScanLower(kid, delays)
				}
				for c := 0; c < n; c++ {
					x := float64(c) * step
					if prunable {
						p.audit.Prune.Bounded++
						lb := p.lbSum + math.Max(rest, through+x)
						if lb-1e-9*(1+lb) >= best-1e-9 {
							p.audit.Prune.Pruned++
							continue
						}
					}
					delays[kid] = x
					tot, err := p.score(run, bev)
					if err != nil {
						return sim.JobRun{}, err
					}
					if tot < best-1e-9 {
						best = tot
						bestDelay = x
					}
				}
				if bestDelay == 0 {
					delete(delays, kid)
				} else {
					delays[kid] = bestDelay
				}
			}
		}
	}
	// Never worse than submitting everything immediately: when the sweep
	// beat stock by less than tolerance (or not at all), commit nil delays
	// so the run is indistinguishable from submit-when-ready. (best starts
	// at stockTotal and only decreases, so the former `best > stockTotal`
	// form of this guard could never fire.)
	if len(delays) == 0 || best >= stockTotal-1e-9 {
		run.Delays = nil
	}
	p.audit.IncumbentTotal = stockTotal
	p.audit.ChosenTotal = best
	if run.Delays == nil {
		p.audit.FallbackNoWin = true
		p.audit.ChosenTotal = stockTotal
	}
	p.committed = append(p.committed, run)
	p.commitLB(run)
	p.last = arrival
	return run, nil
}

// PlanOnline plans every job in arrival order and returns the runs ready
// for sim.Run. len(jobs) must equal len(arrivals); arrivals must be
// finite, non-negative (*InvalidArrivalError otherwise) and non-decreasing
// (sort first if needed).
func PlanOnline(opt OnlineOptions, jobs []*workload.Job, arrivals []float64) ([]sim.JobRun, error) {
	if len(jobs) != len(arrivals) {
		return nil, fmt.Errorf("scheduler: %d jobs but %d arrivals", len(jobs), len(arrivals))
	}
	p, err := NewOnlinePlanner(opt)
	if err != nil {
		return nil, err
	}
	for i, job := range jobs {
		if _, err := p.Add(job, arrivals[i]); err != nil {
			return nil, err
		}
	}
	return p.Committed(), nil
}

// RunOnline plans online and simulates the outcome in one call.
func RunOnline(opt OnlineOptions, jobs []*workload.Job, arrivals []float64, simOpt sim.Options) (*sim.Result, error) {
	runs, err := PlanOnline(opt, jobs, arrivals)
	if err != nil {
		return nil, err
	}
	simOpt.Cluster = opt.Cluster
	simOpt.FairByJob = opt.FairByJob
	return sim.Run(simOpt, runs)
}
