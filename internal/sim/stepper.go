package sim

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
)

// Stepper drives one simulation at event granularity, and it is the one
// handle that pauses and forks a simulated world. Its three step
// primitives — HasPendingEvents, PeekNextEventTime, StepNextEvent — let a
// caller stop a world between events: the what-if evaluator runs a world
// up to a stage's ready time, and a caller that must not step past the
// next arrival peeks first. Each world's trajectory stays bit-identical
// to an uninterrupted Run: StepNextEvent is exactly one iteration of the
// same event loop Run executes, and PeekNextEventTime only performs the
// mutations that are idempotent at an event boundary.
//
// A live world also grows: AdvanceBefore halts the stepper just before a
// point in simulated time and Inject adds a run arriving there, with the
// same result as a stepper built over every run from the start. Between
// steps the world can be forked (Fork) — the what-if evaluator prices
// every delay candidate of a stage from one world that holds the stage
// back.
//
// A Stepper is single-goroutine: nothing inside is locked. Concurrency
// lives above it — disjoint steppers on disjoint worlds can be driven from
// different goroutines because they share no state, and Fork only reads
// its parent, so many goroutines may fork one parent nobody steps.
type Stepper struct {
	e    *engine // nil once Result has retired it to the engine pool
	done bool
	err  error
	// res, clock, events and jobs are the finished run's result (nil
	// when DrainJCTSum discarded it), final clock, event count and job
	// count, kept once the engine is retired.
	res    *Result
	clock  float64
	events int
	jobs   int
	// horizon is the earliest arrival Inject accepts: the latest
	// AdvanceBefore bound, or +Inf once the stepper moved by any other
	// means (those may step past a boundary an injected run would need).
	horizon float64
	// ownRuns is set once the engine's run list has been copied away from
	// the slice NewStepper was given, so Inject never appends into it.
	ownRuns bool
}

// NewStepper validates the configuration exactly as Run does and returns a
// stepper positioned before the first event. Driving it until
// HasPendingEvents is false and then calling Result produces the same
// *Result (bit for bit) as Run(opt, runs).
func NewStepper(opt Options, runs []JobRun) (*Stepper, error) {
	opt, err := prepare(opt, runs)
	if err != nil {
		return nil, err
	}
	e := newEngine(opt, runs)
	e.setup()
	return &Stepper{e: e}, nil
}

// HasPendingEvents reports whether StepNextEvent still has work to do.
// It turns false after the step that completes (or fatally errors) the run.
func (s *Stepper) HasPendingEvents() bool { return !s.done }

// Clock returns the current simulated time.
func (s *Stepper) Clock() float64 {
	if s.e == nil {
		return s.clock
	}
	return s.e.now
}

// Events returns the number of events processed so far.
func (s *Stepper) Events() int {
	if s.e == nil {
		return s.events
	}
	return s.e.res.Events
}

// ReadyTime reports when the job's stage at position pos (in
// Graph.StagesView order) became ready — every parent complete, or the
// job arrived for a root — and false while it is not ready yet, and for a
// position the job does not have or its run's mask leaves out. A retired
// stepper reports false: a finished run's ready times are in its Result.
// The what-if evaluator steps a world to its scanned stage's readiness
// with it; a position, unlike a stage ID, needs no map lookup per step.
func (s *Stepper) ReadyTime(job, pos int) (float64, bool) {
	if s.e == nil {
		return 0, false
	}
	si := s.e.posIdx(job, pos)
	if si < 0 || !s.e.states[si].readyValid {
		return 0, false
	}
	return s.e.states[si].tl.ready, true
}

// Timeline reports the live timeline of the job's stage at position pos
// (addressed as for ReadyTime): each milestone the stage has reached
// holds its time, bit-identical to the finished Result's, and each one it
// has not reached yet reads +Inf, as a world may start at t = 0. Retries
// is the live count of failed partition attempts. It reports false while
// the stage has reached no milestone, for a position the job does not
// have or its run's mask leaves out, and on a retired stepper.
func (s *Stepper) Timeline(job, pos int) (StageTimeline, bool) {
	if s.e == nil {
		return StageTimeline{}, false
	}
	si := s.e.posIdx(job, pos)
	if si < 0 {
		return StageTimeline{}, false
	}
	st := &s.e.states[si]
	if !st.readyValid && !st.submitted {
		return StageTimeline{}, false
	}
	tl, inf := s.e.timeline(si), math.Inf(1)
	if !st.readyValid {
		tl.Ready = inf // an AggShuffle prefetch submits before readiness
	}
	if !st.submitted {
		tl.Start = inf
	}
	if !st.submitted || st.readsLeft > 0 {
		tl.ReadEnd = inf
	}
	if !st.submitted || st.computeLeft > 0 {
		tl.ComputeEnd = inf
	}
	if !st.complete {
		tl.End = inf
	}
	tl.Retries = st.retries
	return tl, true
}

// JobEnd is one job's terminal event as TakeEnded reports it: the job
// index, the instant it completed or aborted, and the abort's error (nil
// for a completed job).
type JobEnd struct {
	Job int
	End float64
	Err error
}

// TakeEnded appends to dst every job that completed or aborted since the
// last call, in the order their EvJobDone and EvJobFailed events fired,
// and forgets them. A caller that drives a live world with AdvanceBefore
// learns from it which jobs ended, with no Observer. A fork starts with
// none, and a retired stepper reports none.
func (s *Stepper) TakeEnded(dst []JobEnd) []JobEnd {
	e := s.e
	if e == nil {
		return dst
	}
	for _, j := range e.ended {
		dst = append(dst, JobEnd{Job: j, End: e.jobEnd[j], Err: e.jobErrs[j]})
	}
	e.ended = e.ended[:0]
	return dst
}

// Jobs returns how many runs the world holds, injected ones included:
// the job index the next Inject assigns.
func (s *Stepper) Jobs() int {
	if s.e == nil {
		return s.jobs
	}
	return len(s.e.runs)
}

// PeekNextEventTime returns the simulated time the next StepNextEvent
// would advance the clock to: the earliest due timer, or the next item
// completion/availability boundary. A drained stepper peeks +Inf, so a
// k-way merge over peek times naturally sinks finished worlds; a stepper
// whose next step would surface an error peeks its current clock, so the
// merge drains it promptly and the error is reported by StepNextEvent.
func (s *Stepper) PeekNextEventTime() float64 {
	if s.done {
		return math.Inf(1)
	}
	s.horizon = math.Inf(1)
	return s.e.peekNextEventTime()
}

// StepNextEvent processes exactly one event. Calling it on a drained
// stepper returns an error; any simulation error is sticky and also
// terminates the stepping.
func (s *Stepper) StepNextEvent() error {
	if s.done {
		if s.err != nil {
			return s.err
		}
		return fmt.Errorf("sim: step on a finished run")
	}
	s.horizon = math.Inf(1)
	done, err := s.e.step()
	if err != nil {
		s.done, s.err = true, err
		return err
	}
	s.done = done
	return nil
}

// AdvanceBefore steps every event strictly before simulated time t and
// halts at that boundary: no timer fires at an effective time ≥ t and no
// advance lands at or past it, and the prefix stepped is the one a world
// that also held a run arriving at t would have stepped (the boundary
// Inject needs). A world whose jobs have all finished idles rather than
// completing, so AdvanceBefore never turns HasPendingEvents false; only a
// simulation error ends the stepping. t = +Inf runs every job to its end.
func (s *Stepper) AdvanceBefore(t float64) error {
	if math.IsNaN(t) {
		return fmt.Errorf("sim: advance before NaN")
	}
	if s.done {
		return s.err
	}
	e := s.e
	e.haltSet, e.haltAt = true, t
	var err error
	for stop := false; !stop && err == nil; {
		stop, err = e.step()
	}
	e.haltSet, e.haltAt = false, 0
	if err != nil {
		s.done, s.err = true, err
		return err
	}
	s.horizon = math.Max(s.horizon, t)
	return nil
}

// Fork returns an independent stepper that continues this world from
// where it stands, after revising the submission delays of stages that
// were not yet submitted. The parent is only read: it stays usable, and
// any number of goroutines may fork it at once while nobody steps it.
// (The fork shares the parent's immutable stage info and counts itself
// among its holders atomically; see stageTable.) The fork keeps the
// parent's Inject horizon.
//
// Updates may only name stages that were not yet submitted (submitted
// work cannot be un-submitted) with a finite, non-negative delay; stages
// of a job that already failed ignore them, as under a watchdog. A
// revised stage that is not yet *ready* simply reads the new delay when
// it becomes ready — the delay value is only ever read at readiness. A
// stage that is already ready (but still waiting out its old delay) has
// its pending submission timer re-armed in place at ready time + delay
// (never before the fork's clock), keeping the timer's sequence number:
// the fork then holds the very timers a from-scratch run with the new
// delay would. Either way, a fork taken at a boundary no later than the
// stage's new submission time (ready time + delay) is bit-identical to a
// from-scratch Run with that delay in the run's Delays map — which is
// how the what-if evaluator prices every delay candidate of a stage from
// one world that holds the stage back.
//
// The fork of a world with an Observer is detached: it has none, so the
// parent's observer sees nothing the fork steps. Observers only read, so
// dropping one leaves the trajectory unchanged. A world with a Watchdog
// cannot be forked: a trip pushes fresh submission timers beside the
// superseded ones, so a ready stage may hold more than the one timer Fork
// re-arms in place. Faults are fine — the injector's draws are pure
// functions of (seed, task attempt), shared read-only across forks.
func (s *Stepper) Fork(updates []DelayUpdate) (*Stepper, error) {
	if s.done {
		return nil, fmt.Errorf("sim: fork of a finished run")
	}
	p := s.e
	if p.opt.Watchdog != nil {
		return nil, fmt.Errorf("sim: a world with a Watchdog cannot be forked")
	}
	e := p.clone()
	if err := e.reviseDelays(updates); err != nil {
		e.release()
		return nil, err
	}
	return &Stepper{e: e, horizon: s.horizon}, nil
}

// Inject adds a run to the live world. Stepping on from here reproduces,
// bit for bit, a stepper built over the original runs plus every injected
// one (in injection order): that holds because nothing at or past the
// run's arrival has been stepped — the stepper stands at an AdvanceBefore
// boundary no later than the arrival, or has not stepped at all. Inject
// returns an error rather than diverge when that is not the case (the
// arrival is behind the horizon, or the stepper moved by StepNextEvent or
// PeekNextEventTime), on a finished stepper, on an invalid run, and under
// a Watchdog, whose per-job trip state the engine sizes to the runs of
// its first check. The run's
// job index is the number of runs before it; its Delays map is read, not
// copied, as the stage becomes ready.
func (s *Stepper) Inject(run JobRun) error {
	if s.done {
		return fmt.Errorf("sim: inject into a finished run")
	}
	e := s.e
	if e.opt.Watchdog != nil {
		return fmt.Errorf("sim: inject with a Watchdog is not supported")
	}
	ji := len(e.runs)
	if err := validateRun(e.opt, ji, run); err != nil {
		return err
	}
	if run.Arrival < s.horizon {
		return fmt.Errorf("sim: inject: job %d arrives at %v, behind the stepped horizon %v", ji, run.Arrival, s.horizon)
	}
	if !s.ownRuns {
		e.runs = slices.Clip(e.runs)
		s.ownRuns = true
	}
	e.runs = append(e.runs, run)
	e.jobStart = append(e.jobStart, run.Arrival)
	e.jobEnd = append(e.jobEnd, 0)
	e.jobErrs = append(e.jobErrs, nil)
	e.failed = append(e.failed, false)
	e.addRun(ji, run)
	e.jobsLeft++
	return nil
}

// AnswerOnly makes the world answer-only: from here on it, and every fork
// taken of it afterwards, steps without the usage integrals and tracked
// series that only a finalized Result reports, and keeps instead the live
// Σ JCT bound a limited DrainJCTSum reads. Its trajectory — clock,
// events, stage timelines, job ends — is unchanged, DrainJCTSum is its
// only answer, and Result errors. The what-if evaluator makes its
// prepared worlds answer-only, so the worlds its candidate scans step
// and fork keep nothing nobody reads. It does nothing on a retired
// stepper.
func (s *Stepper) AnswerOnly() {
	if e := s.e; e != nil && !e.answerOnly {
		e.answerOnly = true
		e.trackWork()
	}
}

// DrainJCTSum steps the world to its end and returns Σ JCT over its jobs
// in job order, bit-identical to summing Result().JCT(i) from zero (for
// one job arriving at 0, its end time), without finalizing a Result: the
// engine retires to the pool and a later Result call errors. It is the
// answer path of a what-if evaluation, which needs one number, so the
// world steps answer-only (see AnswerOnly). Observers see every event as
// in a full run.
//
// A finite limit lets the drain stop early. Before each step it reads a
// live lower bound on the world's Σ JCT (bound.go), less a float slack of
// ScanTolerance·(1 + bound); once that floor reaches limit, the world provably
// cannot end below limit, and DrainJCTSum retires the engine and returns
// the floor with cut set. limit = +Inf always drains to the end, bit for
// bit as without a limit.
func (s *Stepper) DrainJCTSum(limit float64) (sum float64, cut bool, err error) {
	s.AnswerOnly()
	bounded := limit < math.Inf(1)
	for !s.done {
		if bounded {
			if lb := s.e.jctFloor(); lb >= limit {
				s.retire()
				return lb, true, nil
			}
		}
		if err := s.StepNextEvent(); err != nil {
			return 0, false, err
		}
	}
	if s.err != nil {
		return 0, false, s.err
	}
	e := s.e
	if e == nil {
		return 0, false, fmt.Errorf("sim: JCT sum requested from a retired stepper")
	}
	total := 0.0
	for i, end := range e.jobEnd {
		total += end - e.jobStart[i]
	}
	s.retire()
	return total, false, nil
}

// retire hands the engine back to the pool without a Result, keeping its
// clock, event and job counts readable.
func (s *Stepper) retire() {
	e := s.e
	s.done = true
	s.clock, s.events, s.jobs = e.now, e.res.Events, len(e.runs)
	e.release()
	s.e = nil
}

// Close retires an unfinished stepper's engine to the pool without
// stepping on; afterwards the stepper reports a finished run and every
// step, fork, inject or result call returns an error. Forks taken before
// are independent and stay usable. A caller that keeps an unstepped
// world only to fork it — the what-if evaluator's prepared world — closes
// it when done, so its buffers serve the next world. Closing a finished
// stepper does nothing.
func (s *Stepper) Close() {
	if s.done {
		return
	}
	s.retire()
	s.err = errClosed
}

var errClosed = errors.New("sim: stepper closed")

// Result finalizes and returns the run's result. It is only valid once
// HasPendingEvents is false; a run that ended in an error returns it here
// too. Result may be called repeatedly (the finalize pass runs once).
// Taking the result retires the stepper's engine to the pool; the Result
// itself belongs to the caller. An answer-only world has no Result.
func (s *Stepper) Result() (*Result, error) {
	if !s.done {
		return nil, fmt.Errorf("sim: result requested with events still pending")
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.e != nil && s.e.answerOnly {
		return nil, fmt.Errorf("sim: result requested from an answer-only world (it keeps no usage; drain it with DrainJCTSum)")
	}
	if s.e != nil {
		s.e.finalize()
		s.res, s.clock, s.events, s.jobs = s.e.result(), s.e.now, s.e.res.Events, len(s.e.runs)
		s.e.release()
		s.e = nil
	}
	if s.res == nil {
		return nil, fmt.Errorf("sim: result requested after DrainJCTSum discarded it")
	}
	return s.res, nil
}

// clone deep-copies the engine's mutable state into an engine from the
// pool. Immutable inputs — the cluster capacities, job graphs and their
// position lists, the stage-info slab, the fault injector — are shared;
// everything the event loop writes is copied, so the original can be
// forked again later. Scratch buffers are not copied (they carry no state
// across events).
//
// The mutable stage slab and the items copy in bulk: stage links are
// slab indices and need no rewiring, an item's owning stage is a slab
// index too, and the per-node buckets are rebuilt as the e.items
// subsequences they are — so their order, which fixes the floating-point
// accumulation order of the rates passes, carries over exactly. The
// stage side tables copy only when they hold anything, and only a live
// speculation race needs an old→new item map to rewire its rival links.
// The clone has no Observer, and no ended jobs for TakeEnded.
func (e *engine) clone() *engine {
	opt := e.opt
	opt.Observer = nil
	c := newEngine(opt, e.runs)
	c.answerOnly = e.answerOnly
	c.seq = e.seq
	c.now = e.now
	c.cpuBusyInt = e.cpuBusyInt
	c.netBytesInt = e.netBytesInt
	c.diskBytesInt = e.diskBytesInt
	c.jobsLeft = e.jobsLeft
	c.stagesLeft = append(c.stagesLeft, e.stagesLeft...)
	copy(c.failed, e.failed)
	copy(c.jobStart, e.jobStart)
	copy(c.jobEnd, e.jobEnd)
	copy(c.jobErrs, e.jobErrs)
	c.jobBase = append(c.jobBase, e.jobBase...)
	c.work = append(c.work, e.work...)
	c.lbDone, c.lbStarts, c.lbNeed, c.lbArrived = e.lbDone, e.lbStarts, e.lbNeed, e.lbArrived
	c.inW = append(c.inW, e.inW...)

	// The info slab is shared, the pointer-free state slab copies as one
	// block, and the side tables' lists get fresh backing.
	if e.tab != nil {
		e.tab.refs.Add(1)
		c.tab, c.info = e.tab, e.info
	}
	c.states = append(c.states, e.states...)
	c.pending = cloneLists(c.pending, e.pending)
	c.compDurs = cloneLists(c.compDurs, e.compDurs)
	if len(e.specDone) > 0 {
		if c.specDone == nil {
			c.specDone = make(map[partKey]bool, len(e.specDone))
		}
		maps.Copy(c.specDone, e.specDone)
	}

	rivals := false
	for _, it := range e.items {
		ni := c.popItem()
		*ni = *it
		c.items = append(c.items, ni)
		bk := c.bucketOf(ni)
		*bk = append(*bk, ni)
		rivals = rivals || it.rival != nil
	}
	if rivals {
		// Both ends of a live race are always in e.items.
		im := make(map[*item]*item, len(e.items))
		for i, it := range e.items {
			im[it] = c.items[i]
		}
		for _, ni := range c.items {
			if ni.rival != nil {
				ni.rival = im[ni.rival]
			}
		}
	}
	copy(c.dirtyC, e.dirtyC)
	copy(c.dirtyR, e.dirtyR)
	copy(c.dirtyW, e.dirtyW)

	c.timers = append(c.timers, e.timers...)
	// The result in progress holds counters and the series the tracking
	// options record; the rest is finalize's, and a finalized engine is
	// never cloned.
	c.res.Events, c.res.Retries = e.res.Events, e.res.Retries
	c.res.SpecLaunched, c.res.SpecWins, c.res.Blacklisted = e.res.SpecLaunched, e.res.SpecWins, e.res.Blacklisted
	if e.opt.TrackNode >= 0 {
		c.res.Node = e.res.Node.clone()
	}
	if e.opt.TrackCluster {
		c.res.Cluster = e.res.Cluster.clone()
	}
	if len(e.res.Occupancy) > 0 {
		c.res.Occupancy = slices.Clone(e.res.Occupancy)
	}
	for k, seg := range e.occOpen {
		s := *seg
		c.occOpen[k] = &s
	}
	for k, rs := range e.recomps {
		c.recomps[k] = &recompState{held: append([]int(nil), rs.held...)}
	}
	// Machine health: nodeSlow is immutable after setup (shared);
	// fault counters are mutable (copied). newEngine does not run setup,
	// so the clone must take them explicitly.
	c.nodeSlow = e.nodeSlow
	if e.faultCount != nil {
		c.faultCount = append([]int(nil), e.faultCount...)
		c.blacklisted = append([]bool(nil), e.blacklisted...)
	}
	c.nBlacklisted = e.nBlacklisted
	return c
}

// cloneLists copies a side table's lists into dst, an empty table
// allocated only when src holds anything, and returns dst.
func cloneLists[T any](dst, src map[int][]T) map[int][]T {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[int][]T, len(src))
	}
	for k, v := range src {
		dst[k] = slices.Clone(v)
	}
	return dst
}

// clone deep-copies a usage record (every series gets fresh backing).
func (u NodeUsage) clone() NodeUsage {
	return NodeUsage{
		CPUBusy:  append(Series(nil), u.CPUBusy...),
		NetRate:  append(Series(nil), u.NetRate...),
		DiskRate: append(Series(nil), u.DiskRate...),
	}
}
