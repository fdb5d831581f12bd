// Package service is the online scheduling service: the long-running
// control plane / data plane pair behind cmd/schedd.
//
// The control plane runs each arriving job through an admission stage
// (pluggable AdmissionPolicy), then a planning stage that reuses the
// online DelayStage objective (scheduler.OnlinePlanner — minimize the sum
// of completion times over every live job, Sec. 6) with a plan-template
// cache in front so recurring DAG shapes skip Alg. 1 on the hot path.
//
// The data plane is a shared simulated cluster, one live sim.Stepper per
// busy period: each submission halts it just before the arrival
// (AdvanceBefore), runs admission and planning against that state, and
// injects the admitted run (Inject). The queue depth a policy sees, and
// the queue-length delay revision at dispatch, read the world exactly as
// of the arrival instant, and a cold plan prices candidates on its forks.
// It evolves exactly as sim.Run over the epoch's committed runs.
//
// State is bounded by busy-period epochs: when the stepper drains (every
// admitted job finished), completed runs are constants of the objective
// and cannot perturb later planning, so the planner and world reset.
package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/obs"
	"delaystage/internal/perfmodel"
	"delaystage/internal/scheduler"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Options configures a Service.
type Options struct {
	// Cluster is the cluster jobs are planned for (required).
	Cluster *cluster.Cluster
	// Admission gates arriving jobs (nil = AcceptAll).
	Admission AdmissionPolicy
	// SlotSeconds / MaxCandidates / FairByJob mirror
	// scheduler.OnlineOptions.
	SlotSeconds   float64
	MaxCandidates int
	FairByJob     bool
	// ApproximatePlanning answers every planning decision from the
	// analytic model instead of simulation — candidate scoring
	// (scheduler.OnlineOptions.Approximate), the template drift test, and
	// the stored drift reference all use the model's predicted layout, so
	// the control plane never simulates on the hot path. Plans are
	// approximate; the data plane still simulates reality.
	ApproximatePlanning bool
	// DriftTolerance is the template-validity threshold: a cache hit is
	// reused only when a solo simulation under the cached delays keeps
	// every stage's end within this relative deviation of the stored
	// prediction (the guarded watchdog's drift test; 0 =
	// scheduler.DriftTolerance).
	DriftTolerance float64
	// ReviseQueueDepth enables queue-length-aware delay revision: when the
	// live-job count at an arrival is ≥ this, the job dispatches
	// submit-when-ready (nil delays) without running Alg. 1 — under deep
	// queues a delay only adds latency on top of contention the objective
	// already penalizes. 0 disables revision.
	ReviseQueueDepth int
	// CacheCapacity bounds the plan-template cache and the table of
	// interned job specs, each to this many entries (0 = 512; negative
	// disables both).
	CacheCapacity int
	// TimeScale is simulated seconds per wall-clock second, used to derive
	// the arrival time of submissions that do not carry one (0 = 1).
	TimeScale float64
	// Clock supplies wall time (nil = time.Now; tests inject).
	Clock func() time.Time
	// TraceLog, when non-nil, receives one JSONL trace line (schema
	// delaystage/trace/v1) per job the moment it reaches a terminal state
	// — the export cmd/analyze replays offline.
	TraceLog io.Writer
	// Logger receives the service's structured diagnostics (nil =
	// discard). Every job-scoped line carries the trace_id key.
	Logger *slog.Logger
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states, in the order a job moves through them.
const (
	StateRejected JobState = "rejected" // bounced by admission
	StateQueued   JobState = "queued"   // admitted, arrival not yet reached
	StateRunning  JobState = "running"  // arrival reached, not finished
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
)

// JobStatus is a JSON-ready snapshot of one submission. The submit answer
// writes its fields by hand (appendJobStatus): a new field goes there too.
type JobStatus struct {
	ID         string   `json:"id"`
	Name       string   `json:"name"`
	Tenant     string   `json:"tenant,omitempty"`
	State      JobState `json:"state"`
	Reason     string   `json:"reason,omitempty"`
	Stages     int      `json:"stages"`
	Arrival    float64  `json:"arrival"`
	End        float64  `json:"end,omitempty"`
	JCT        float64  `json:"jct,omitempty"`
	PlanSource string   `json:"plan_source,omitempty"`
	CacheHit   bool     `json:"cache_hit,omitempty"`
	Revised    bool     `json:"revised,omitempty"`
	Epoch      int      `json:"epoch"`
}

// PlanStatus is the chosen delay vector of one admitted job.
type PlanStatus struct {
	ID     string `json:"id"`
	Source string `json:"source"` // "planner" | "template-cache" | "queue-revision"
	// CacheHit / Revised mirror the JobStatus flags.
	CacheHit bool `json:"cache_hit"`
	Revised  bool `json:"revised"`
	// Fingerprint is the job's template key, hex-encoded.
	Fingerprint string `json:"fingerprint"`
	// Delays maps stage ID → extra seconds held after ready. Empty means
	// submit-when-ready.
	Delays map[string]float64 `json:"delays"`
}

// ClusterState is the live data-plane snapshot behind GET /v1/cluster.
type ClusterState struct {
	SimClock     float64 `json:"sim_clock"`
	Epoch        int     `json:"epoch"`
	EpochEvents  int     `json:"epoch_events"`
	Nodes        int     `json:"nodes"`
	Executors    int     `json:"executors"`
	Policy       string  `json:"admission_policy"`
	Submitted    int     `json:"submitted"`
	Admitted     int     `json:"admitted"`
	Rejected     int     `json:"rejected"`
	Done         int     `json:"done"`
	Failed       int     `json:"failed"`
	Live         int     `json:"live"`
	CacheEntries int     `json:"cache_entries"`
}

// SubmitRequest is one job submission.
type SubmitRequest struct {
	Tenant string
	Job    *workload.Job
	// Arrival is the simulated arrival time; nil means "now" (wall time
	// since service start, scaled by TimeScale). Arrivals are clamped
	// forward to the already-simulated clock, which is never behind a
	// committed arrival — a job cannot arrive in the observed past.
	Arrival *float64
}

// jobRecord is the service's mutable per-submission state.
type jobRecord struct {
	id         string
	name       string
	tenant     string
	stages     int
	state      JobState
	reason     string
	requested  float64 // arrival the caller asked for, pre-clamp
	clamped    bool    // arrival was clamped forward to the observed present
	arrival    float64
	end        float64
	jct        float64
	planSource string
	cacheHit   bool
	revised    bool
	fp         uint64
	delays     map[dag.StageID]float64
	epoch      int

	// Tracing state. queueDepth is the live-job count admission saw;
	// stageParents renders the DAG edges for stage-span attrs; audit is
	// the planning decision. A dispatched record's stage spans are the
	// engine's timelines: while it runs, buildTrace reads them from the
	// epoch's stepper at job index run, in graph's stage-ID order; once
	// it is terminal, timelines holds the copy markTerminal took and
	// graph is dropped. None of it changes again, so a terminal record's
	// span tree is rebuilt on demand.
	queueDepth   int
	stageParents map[dag.StageID]string
	audit        *obs.DecisionAudit
	run          int
	graph        *dag.Graph
	timelines    []sim.StageTimeline
}

// timelineCapacity bounds the GET /v1/timeline milestone ring. The ring
// keeps the newest entries; evictions are reported via the response's
// "dropped" count.
const timelineCapacity = 256

// planCounters are the /metrics counters of planning work: one per
// core.PlanStats field, each bumped by that field of every cold plan.
var planCounters = []struct {
	name, help string
	field      func(core.PlanStats) int
}{
	{"schedd_plan_evaluations_total", "Objective evaluations of cold Alg. 1 sweeps, memo hits included.",
		func(s core.PlanStats) int { return s.Evaluations }},
	{"schedd_plan_memo_hits_total", "Evaluations answered from the what-if memo cache.",
		func(s core.PlanStats) int { return s.CacheHits }},
	{"schedd_plan_forked_evals_total", "Delay candidates answered on a fork of their scan's held world.",
		func(s core.PlanStats) int { return s.ForkedEvals }},
	{"schedd_plan_full_evals_total", "Evaluations answered by a full simulation from the job's arrival.",
		func(s core.PlanStats) int { return s.FullEvals }},
	{"schedd_plan_drains_cut_total", "Candidate simulations stopped early: their live JCT bound showed they could not win.",
		func(s core.PlanStats) int { return s.CutEvals }},
	{"schedd_plan_reused_scans_total", "Candidate scans started from the previous scan's ready boundary.",
		func(s core.PlanStats) int { return s.ReusedScans }},
	{"schedd_plan_bounded_total", "Delay candidates given an analytic lower bound.",
		func(s core.PlanStats) int { return s.Bounded }},
	{"schedd_plan_pruned_total", "Delay candidates the analytic bound tier eliminated before any simulation.",
		func(s core.PlanStats) int { return s.Pruned }},
	{"schedd_plan_exact_evals_total", "Delay candidates answered by an exact multi-job simulation.",
		func(s core.PlanStats) int { return s.Exact }},
	{"schedd_plan_approx_evals_total", "Evaluations answered by the analytic model (approximate planning).",
		func(s core.PlanStats) int { return s.Approx }},
}

// Service is the scheduler daemon's engine. All methods are safe for
// concurrent use; one mutex serializes the control and data planes.
type Service struct {
	opt       Options
	admission AdmissionPolicy
	reg       *obs.Registry
	coarse    *cluster.Cluster
	clock     func() time.Time
	start     time.Time

	logger   *slog.Logger
	traceLog io.Writer

	specs *specTable // interned job specs, under their own lock; nil = off

	mu        sync.Mutex
	planner   *scheduler.OnlinePlanner
	cache     *templateCache
	jobs      map[string]*jobRecord
	history   []*jobRecord
	nextID    int
	epoch     int
	epochRecs []*jobRecord // indexed by the stepper's job index
	stepper   *sim.Stepper // the epoch's live world; nil between epochs
	ended     []sim.JobEnd // advanceBefore's scratch for the stepper's ended jobs
	simClock  float64
	counts    struct{ submitted, admitted, rejected, done, failed int }

	timeline []TimelineEvent // bounded milestone ring (GET /v1/timeline), seq n at n % tlCap
	tlSeq    int             // next sequence number; also total ever added
	tlCap    int             // timelineCapacity; tests shrink it

	mSubmitted, mAdmitted, mRejected     *obs.Counter
	mCacheHit, mCacheMiss, mCacheInvalid *obs.Counter
	mRevised, mEpochs                    *obs.Counter
	mPlanWork                            []*obs.Counter // by planCounters index
	mPlanSec, mJCT                       *obs.Histogram
	mE2E, mQueueWait                     *obs.Histogram
	gLive, gSimClock, gCacheSize         *obs.Gauge
	mInternHit, mInternMiss              *obs.Counter
	gInternSize                          *obs.Gauge
}

// New validates the configuration and returns an idle service.
func New(opt Options) (*Service, error) {
	if opt.Cluster == nil {
		return nil, fmt.Errorf("service: nil cluster")
	}
	planner, err := scheduler.NewOnlinePlanner(scheduler.OnlineOptions{
		Cluster:       opt.Cluster,
		SlotSeconds:   opt.SlotSeconds,
		MaxCandidates: opt.MaxCandidates,
		FairByJob:     opt.FairByJob,
		Approximate:   opt.ApproximatePlanning,
	})
	if err != nil {
		return nil, err
	}
	if opt.Admission == nil {
		opt.Admission = AcceptAll{}
	}
	if opt.DriftTolerance <= 0 {
		opt.DriftTolerance = scheduler.DriftTolerance
	}
	if opt.TimeScale <= 0 {
		opt.TimeScale = 1
	}
	if opt.Clock == nil {
		opt.Clock = time.Now
	}
	if opt.Logger == nil {
		opt.Logger = obs.DiscardLogger()
	}
	s := &Service{
		opt:       opt,
		admission: opt.Admission,
		reg:       obs.NewRegistry(),
		coarse:    sim.Coarsen(opt.Cluster),
		clock:     opt.Clock,
		logger:    opt.Logger,
		traceLog:  opt.TraceLog,
		planner:   planner,
		jobs:      map[string]*jobRecord{},
		tlCap:     timelineCapacity,
	}
	s.start = s.clock()
	if capacity := opt.CacheCapacity; capacity >= 0 {
		if capacity == 0 {
			capacity = 512
		}
		s.cache = newTemplateCache(capacity)
		s.specs = newSpecTable(capacity)
	}
	reg := s.reg
	policy := fmt.Sprintf("{policy=%q}", s.admission.Name())
	s.mSubmitted = reg.Counter("schedd_jobs_submitted_total", "", "Jobs submitted (any outcome).")
	s.mAdmitted = reg.Counter("schedd_jobs_admitted_total", policy, "Jobs passed by the admission policy.")
	s.mRejected = reg.Counter("schedd_jobs_rejected_total", policy, "Jobs bounced by the admission policy.")
	s.mCacheHit = reg.Counter("schedd_plan_cache_hits_total", "", "Plan-template cache hits (drift-valid reuse).")
	s.mCacheMiss = reg.Counter("schedd_plan_cache_misses_total", "", "Plan-template cache misses (cold Alg. 1 sweep).")
	s.mCacheInvalid = reg.Counter("schedd_plan_cache_invalid_total", "", "Cache hits discarded by the drift test.")
	s.mRevised = reg.Counter("schedd_plan_revised_total", "", "Plans revised to submit-when-ready by queue depth.")
	s.mPlanWork = make([]*obs.Counter, len(planCounters))
	for i, c := range planCounters {
		s.mPlanWork[i] = reg.Counter(c.name, "", c.help)
	}
	s.mEpochs = reg.Counter("schedd_epochs_total", "", "Busy-period epochs completed (world drained).")
	s.mPlanSec = reg.Histogram("schedd_planning_seconds", "",
		"Wall-clock latency of one Alg. 1 planning sweep.", obs.ExpBuckets(1e-4, 2, 16))
	s.mJCT = reg.Histogram("schedd_job_jct_seconds", "",
		"Simulated job completion times.", obs.ExpBuckets(1, 2, 20))
	s.mE2E = reg.Histogram("schedd_e2e_seconds", "",
		"Simulated end-to-end latency: requested submit instant to job completion.",
		obs.ExpBuckets(1, 2, 20))
	s.mQueueWait = reg.Histogram("schedd_queue_wait_seconds", "",
		"Simulated wait from arrival to first stage dispatch.",
		obs.ExpBuckets(0.5, 2, 16))
	s.gLive = reg.Gauge("schedd_jobs_live", "", "Admitted jobs not yet finished.")
	s.gSimClock = reg.Gauge("schedd_sim_clock_seconds", "", "Simulated clock high-water mark.")
	s.gCacheSize = reg.Gauge("schedd_plan_cache_entries", "", "Plan templates currently cached.")
	const internHelp = "Submitted job specs by intern-table outcome: a hit reuses an interned spec's job, a miss decodes and builds it."
	s.mInternHit = reg.Counter("schedd_spec_intern_total", `{result="hit"}`, internHelp)
	s.mInternMiss = reg.Counter("schedd_spec_intern_total", `{result="miss"}`, internHelp)
	s.gInternSize = reg.Gauge("schedd_spec_intern_entries", "", "Job specs currently interned.")
	return s, nil
}

// Registry returns the registry the service's metrics live in.
func (s *Service) Registry() *obs.Registry { return s.reg }

// markTerminal transitions a dispatched record to done, or to failed
// with err's text, copies its stages' timelines off the live world onto
// the record, and exports its trace. advanceBefore calls it for every job
// the stepper reports ended, in the order their terminal events fired; a
// finished job's timelines no longer move, and the copy outlives the
// epoch's Stepper.Close, so /v1/trace rebuilds the same tree from it.
// The stepper reports each job once, so each record gets here once.
func (s *Service) markTerminal(rec *jobRecord, t float64, err error) {
	rec.end = t
	rec.jct = t - rec.arrival
	rec.timelines = s.liveTimelines(rec)
	rec.graph = nil
	if fs := firstSubmit(rec.timelines); reached(fs) {
		s.mQueueWait.Observe(fs - rec.arrival)
	}
	if err != nil {
		detail := err.Error()
		rec.state = StateFailed
		rec.reason = detail
		s.counts.failed++
		s.timelineAdd(t, "failed", rec.id, detail)
		s.logger.LogAttrs(context.TODO(), slog.LevelInfo, "job failed",
			slog.String("trace_id", rec.id), slog.Float64("t", t), slog.String("reason", detail))
	} else {
		rec.state = StateDone
		s.counts.done++
		s.mJCT.Observe(rec.jct)
		s.mE2E.Observe(t - rec.requested)
		s.timelineAdd(t, "done", rec.id, "jct="+strconv.FormatFloat(rec.jct, 'f', 3, 64)+"s")
		s.logger.LogAttrs(context.TODO(), slog.LevelInfo, "job done",
			slog.String("trace_id", rec.id), slog.Float64("t", t), slog.Float64("jct", rec.jct))
	}
	s.exportTrace(rec)
}

// liveCount is the number of admitted jobs not yet terminal.
func (s *Service) liveCount() int {
	return s.counts.admitted - s.counts.done - s.counts.failed
}

// dispatch puts a planned run into the data plane: the epoch's first job
// starts a fresh world, later ones join the live one at the boundary
// advanceBefore(arrival) halted it on. Either way the world evolves
// exactly as sim.Run over the epoch's committed runs.
func (s *Service) dispatch(rec *jobRecord, run sim.JobRun) error {
	if s.stepper == nil {
		st, err := sim.NewStepper(sim.Options{
			Cluster:   s.coarse,
			TrackNode: -1,
			FairByJob: s.opt.FairByJob,
		}, []sim.JobRun{run})
		if err != nil {
			return fmt.Errorf("service: data plane: %w", err)
		}
		s.stepper = st
	} else if err := s.stepper.Inject(run); err != nil {
		return fmt.Errorf("service: data plane: %w", err)
	}
	rec.run, rec.graph = len(s.epochRecs), run.Job.Graph
	s.epochRecs = append(s.epochRecs, rec)
	return nil
}

// advanceBefore steps the data plane through every event strictly before
// t — a job arriving at t is then injected without anything at or after
// its arrival having happened — marks the jobs that ended on the way
// terminal, and rolls the epoch over once every admitted job has
// finished. t = +Inf drains fully.
func (s *Service) advanceBefore(t float64) error {
	if s.stepper != nil {
		err := s.stepper.AdvanceBefore(t)
		s.ended = s.stepper.TakeEnded(s.ended[:0])
		for _, je := range s.ended {
			s.markTerminal(s.epochRecs[je.Job], je.End, je.Err)
		}
		if err != nil {
			return fmt.Errorf("service: data plane step: %w", err)
		}
		if c := s.stepper.Clock(); c > s.simClock {
			s.simClock = c
		}
		if s.liveCount() == 0 {
			// Busy period drained: every admitted job finished. Completed
			// runs are constants of the objective — reset the epoch so
			// planning cost tracks the busy period, not daemon uptime.
			// Closing the world returns its engine to sim's pool, so the
			// next epoch's NewStepper reuses its buffers.
			s.stepper.Close()
			s.stepper = nil
			s.epochRecs = s.epochRecs[:0]
			s.planner.Reset()
			s.timelineAdd(s.simClock, "epoch", "", fmt.Sprintf("epoch %d drained", s.epoch))
			s.logger.Debug("epoch drained", "epoch", s.epoch, "sim_clock", s.simClock)
			s.epoch++
			s.mEpochs.Inc()
		}
	}
	if !math.IsInf(t, 1) && t > s.simClock {
		s.simClock = t
	}
	s.gSimClock.Set(s.simClock)
	s.gLive.Set(float64(s.liveCount()))
	return nil
}

// virtualNow derives the current simulated instant: wall time since start
// scaled by TimeScale, never behind what has been simulated, and so never
// behind a committed arrival (advanceBefore reached each before its commit).
func (s *Service) virtualNow(now time.Time) float64 {
	vn := now.Sub(s.start).Seconds() * s.opt.TimeScale
	return math.Max(vn, s.simClock)
}

// Submit runs one job through admission and planning and installs it in
// the data plane. Validation failures (nil/invalid job, NaN/Inf arrival)
// return an error; an admission bounce is not an error — it returns a
// JobStatus in StateRejected with the policy's reason.
func (s *Service) Submit(req SubmitRequest) (JobStatus, error) {
	now := s.clock()
	if req.Job == nil {
		return JobStatus{}, fmt.Errorf("service: nil job")
	}
	if err := req.Job.Validate(); err != nil {
		return JobStatus{}, err
	}
	return s.submit(now, req.Tenant, req.Arrival, newSpecFacts(req.Job))
}

// submit is Submit for the validated job facts.job, whose other facts
// submit reads instead of deriving them again.
func (s *Service) submit(now time.Time, tenant string, reqArrival *float64, facts *specFacts) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	requested := s.virtualNow(now)
	if reqArrival != nil {
		// Same NaN/Inf vetting as the planner, surfaced before admission.
		if err := scheduler.CheckArrival(*reqArrival); err != nil {
			return JobStatus{}, err
		}
		requested = *reqArrival
	}
	arrival := math.Max(requested, s.simClock)
	if err := s.advanceBefore(arrival); err != nil {
		return JobStatus{}, err
	}
	// Counted once the submission is valid and the world stands at its
	// arrival, so every counted submission ends admitted or rejected.
	s.mSubmitted.Inc()
	s.counts.submitted++
	depth := s.liveCount()

	rec := &jobRecord{
		id:         "j-" + strconv.Itoa(s.nextID),
		name:       facts.job.Name,
		tenant:     tenant,
		stages:     facts.job.Graph.Len(),
		state:      StateQueued,
		requested:  requested,
		clamped:    arrival > requested,
		arrival:    arrival,
		epoch:      s.epoch,
		queueDepth: depth,
	}
	s.nextID++
	s.jobs[rec.id] = rec
	s.history = append(s.history, rec)
	s.timelineAdd(arrival, "submitted", rec.id, rec.name)

	dec := s.admission.Admit(AdmissionRequest{
		Tenant:     tenant,
		Stages:     rec.stages,
		Arrival:    arrival,
		QueueDepth: depth,
		Now:        now,
	})
	if !dec.Accept {
		rec.state = StateRejected
		rec.reason = dec.Reason
		rec.end = arrival
		s.mRejected.Inc()
		s.counts.rejected++
		s.timelineAdd(arrival, "rejected", rec.id, dec.Reason)
		s.logger.LogAttrs(context.TODO(), slog.LevelInfo, "job rejected",
			slog.String("trace_id", rec.id), slog.String("tenant", rec.tenant),
			slog.String("policy", s.admission.Name()), slog.String("reason", dec.Reason))
		s.exportTrace(rec)
		return s.snapshot(rec), nil
	}
	s.mAdmitted.Inc()
	s.counts.admitted++
	rec.stageParents = facts.parents

	run, err := s.plan(rec, facts, arrival, depth)
	if err == nil {
		rec.delays = run.Delays
		err = s.dispatch(rec, run)
	}
	if err != nil {
		rec.state = StateFailed
		rec.reason = err.Error()
		rec.end = arrival
		rec.audit = nil // render the failure, not a half-built decision
		s.counts.failed++
		s.timelineAdd(arrival, "failed", rec.id, err.Error())
		s.logger.Error("planning failed", "trace_id", rec.id, "err", err.Error())
		s.exportTrace(rec)
		return JobStatus{}, &jobFailedError{err}
	}
	planDetail := rec.planSource
	if rec.audit != nil && rec.audit.Source == "planner" {
		// Surface the two-tier scan's outcome in the milestone feed so an
		// operator can see pruning effectiveness without pulling traces.
		planDetail = fmt.Sprintf("%s pruned=%d exact=%d", rec.planSource,
			rec.audit.Pruned, rec.audit.ExactEvals)
		if rec.audit.ApproxEvals > 0 {
			planDetail += fmt.Sprintf(" approx=%d", rec.audit.ApproxEvals)
		}
	}
	s.timelineAdd(arrival, "planned", rec.id, planDetail)
	s.logger.LogAttrs(context.TODO(), slog.LevelInfo, "job planned",
		slog.String("trace_id", rec.id), slog.String("tenant", rec.tenant),
		slog.Float64("arrival", arrival), slog.String("source", rec.planSource),
		slog.Int("delays", len(run.Delays)), slog.Int("queue_depth", depth))
	return s.snapshot(rec), nil
}

// jobFailedError is Submit's error for a job that was admitted and then
// failed to plan or dispatch, for example because its run cannot finish
// inside the simulator's horizon. The job is recorded and counted as
// failed; its message is the cause's.
type jobFailedError struct{ err error }

func (e *jobFailedError) Error() string { return e.err.Error() }
func (e *jobFailedError) Unwrap() error { return e.err }

// plan chooses the delay vector of the job facts.job — queue revision,
// template cache, or a cold Alg. 1 sweep — commits it to the planner and
// records the decision audit the job's plan span exposes.
func (s *Service) plan(rec *jobRecord, facts *specFacts, arrival float64, depth int) (sim.JobRun, error) {
	job := facts.job
	t0 := time.Now()
	audit := &obs.DecisionAudit{QueueDepth: depth}
	rec.audit = audit
	defer func() {
		// Wall time is the one nondeterministic trace field; it is recorded
		// here once and carried verbatim through every later export.
		audit.WallSeconds = time.Since(t0).Seconds()
	}()
	if s.opt.ReviseQueueDepth > 0 && depth >= s.opt.ReviseQueueDepth {
		// Policy observes live state: under a deep queue, dispatch
		// submit-when-ready instead of stacking delay on contention.
		rec.planSource = "queue-revision"
		rec.revised = true
		audit.Source = "queue-revision"
		audit.Fallback = "queue-depth"
		s.mRevised.Inc()
		return s.planner.Commit(job, arrival, nil)
	}
	rec.fp = facts.fp
	audit.Fingerprint = fmt.Sprintf("%016x", rec.fp)
	if s.cache != nil {
		if t := s.cache.get(rec.fp); t != nil {
			delays := t.instantiate(job)
			if s.cache.fromSource(t, job) || s.driftValid(job, t, delays) {
				rec.planSource = "template-cache"
				rec.cacheHit = true
				t.hits++
				audit.Source = "template-cache"
				audit.CacheHit = true
				audit.Delays = auditDelays(delays)
				s.mCacheHit.Inc()
				return s.planner.Commit(job, arrival, delays)
			}
			audit.CacheInvalidated = true
			s.mCacheInvalid.Inc()
			s.cache.drop(rec.fp)
			s.gCacheSize.Set(float64(s.cache.len()))
		}
		s.mCacheMiss.Inc()
	}
	solo := len(s.planner.Committed()) == 0
	tPlan := time.Now()
	run, sched, err := s.planner.Add(job, arrival, s.stepper)
	s.mPlanSec.Observe(time.Since(tPlan).Seconds())
	if err != nil {
		return sim.JobRun{}, err
	}
	rec.planSource = "planner"
	audit.Source = "planner"
	audit.Evaluations = sched.Evaluations
	audit.ParallelStages = len(sched.K)
	audit.Paths = len(sched.Paths)
	audit.Bounded = sched.Prune.Bounded
	audit.Pruned = sched.Prune.Pruned
	audit.ExactEvals = sched.Prune.Exact
	audit.ApproxEvals = sched.Prune.Approx
	for i, c := range planCounters {
		s.mPlanWork[i].Add(float64(c.field(sched.PlanStats)))
	}
	audit.IncumbentTotal = sched.StockMakespan
	audit.ChosenTotal = sched.Makespan
	if run.Delays == nil && len(sched.K) > 0 {
		// Add's never-worse fallback committed submit-when-ready.
		audit.Fallback = "never-worse"
		audit.ChosenTotal = sched.StockMakespan
	}
	audit.Delays = auditDelays(run.Delays)
	if s.cache != nil && solo {
		// Only solo-context plans are cacheable: they come from the same
		// code path as a cold PlanOnline run, so a later hit reuses a
		// byte-identical delay vector. Plans shaped by committed traffic
		// are situational and would mislead a quiet-hour arrival.
		s.storeTemplate(rec.fp, job, run)
	}
	return run, nil
}

// auditDelays renders a delay vector with string stage keys for the
// decision audit (JSON object keys must be strings; nil when empty so the
// field is omitted for submit-when-ready plans).
func auditDelays(delays map[dag.StageID]float64) map[string]float64 {
	if len(delays) == 0 {
		return nil
	}
	out := make(map[string]float64, len(delays))
	for id, d := range delays {
		out[strconv.Itoa(int(id))] = d
	}
	return out
}

// planEnds predicts every stage's solo completion time under the delays
// on the coarse planning cluster, by rank (see template): a fault-free
// simulation normally, or the analytic model's predicted stage ends under
// ApproximatePlanning (the drift test must not reintroduce simulations
// when planning is analytic). Both sides of a drift comparison always
// come from the same predictor, so the mode switch cannot invalidate
// stored templates.
func (s *Service) planEnds(job *workload.Job, delays map[dag.StageID]float64) ([]float64, error) {
	if s.opt.ApproximatePlanning {
		b, err := perfmodel.NewBoundEvaluator(s.coarse, job, perfmodel.BoundConfig{})
		if err != nil {
			return nil, err
		}
		spans := b.PredictSpans(delays)
		return byRank(job.Graph, func(id dag.StageID) float64 { return spans[id].End }), nil
	}
	// A solo run's timelines are in stage-ID order, that is by rank.
	res, err := sim.Run(sim.Options{Cluster: s.coarse, TrackNode: -1},
		[]sim.JobRun{{Job: job, Delays: delays}})
	if err != nil {
		return nil, err
	}
	ends := make([]float64, len(res.Timelines))
	for r, tl := range res.Timelines {
		ends[r] = tl.End
	}
	return ends, nil
}

// driftValid replays the guarded watchdog's drift test for a cache hit:
// each stage's predicted end under the instantiated delays compared
// against the template's stored prediction of the same rank. plan skips
// it for a hit by the template's own source job
// (templateCache.fromSource), whose prediction it would reproduce
// exactly.
func (s *Service) driftValid(job *workload.Job, t *template, delays map[dag.StageID]float64) bool {
	ends, err := s.planEnds(job, delays)
	if err != nil || len(ends) != len(t.predEnd) {
		return false
	}
	for r, end := range ends {
		if scheduler.Drift(end, t.predEnd[r]) > s.opt.DriftTolerance {
			return false
		}
	}
	return true
}

// storeTemplate records a solo-context plan and its drift reference (the
// predicted per-stage end times of a fault-free solo run at arrival 0).
func (s *Service) storeTemplate(fp uint64, job *workload.Job, run sim.JobRun) {
	ends, err := s.planEnds(job, run.Delays)
	if err != nil {
		return
	}
	var delays []float64
	if len(run.Delays) > 0 {
		delays = byRank(job.Graph, func(id dag.StageID) float64 { return run.Delays[id] })
	}
	s.cache.put(&template{fp: fp, delays: delays, predEnd: ends, source: sourceKey(nil, job)})
	s.gCacheSize.Set(float64(s.cache.len()))
}

// snapshot renders a record's JSON-ready status; "running" is derived from
// the clock so queued→running needs no event of its own.
func (s *Service) snapshot(rec *jobRecord) JobStatus {
	st := rec.state
	if st == StateQueued && s.simClock >= rec.arrival {
		st = StateRunning
	}
	return JobStatus{
		ID:         rec.id,
		Name:       rec.name,
		Tenant:     rec.tenant,
		State:      st,
		Reason:     rec.reason,
		Stages:     rec.stages,
		Arrival:    rec.arrival,
		End:        rec.end,
		JCT:        rec.jct,
		PlanSource: rec.planSource,
		CacheHit:   rec.cacheHit,
		Revised:    rec.revised,
		Epoch:      rec.epoch,
	}
}

// Sync advances the data plane to the current wall-derived instant, so
// read-only queries observe a moving world.
func (s *Service) Sync() error {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advanceBefore(s.virtualNow(now))
}

// Drain runs the data plane until every admitted job has finished — the
// load drivers call it after the last submission to collect final JCTs.
func (s *Service) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advanceBefore(math.Inf(1))
}

// Job returns one submission's status.
func (s *Service) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.snapshot(rec), true
}

// Jobs returns every submission in arrival order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.history))
	for _, rec := range s.history {
		out = append(out, s.snapshot(rec))
	}
	return out
}

// Plan returns the delay vector chosen for an admitted job; ok is false
// for unknown IDs and for submissions that never reached planning.
func (s *Service) Plan(id string) (PlanStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok || rec.planSource == "" {
		return PlanStatus{}, false
	}
	delays := make(map[string]float64, len(rec.delays))
	for sid, d := range rec.delays {
		delays[strconv.Itoa(int(sid))] = d
	}
	return PlanStatus{
		ID:          rec.id,
		Source:      rec.planSource,
		CacheHit:    rec.cacheHit,
		Revised:     rec.revised,
		Fingerprint: fmt.Sprintf("%016x", rec.fp),
		Delays:      delays,
	}, true
}

// ClusterState snapshots the data plane for GET /v1/cluster.
func (s *Service) ClusterState() ClusterState {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := ClusterState{
		SimClock:  s.simClock,
		Epoch:     s.epoch,
		Nodes:     len(s.opt.Cluster.Nodes),
		Executors: s.opt.Cluster.TotalExecutors(),
		Policy:    s.admission.Name(),
		Submitted: s.counts.submitted,
		Admitted:  s.counts.admitted,
		Rejected:  s.counts.rejected,
		Done:      s.counts.done,
		Failed:    s.counts.failed,
		Live:      s.liveCount(),
	}
	if s.stepper != nil {
		cs.EpochEvents = s.stepper.Events()
	}
	if s.cache != nil {
		cs.CacheEntries = s.cache.len()
	}
	return cs
}
