package sim

import (
	"fmt"
	"math"
	"slices"
)

// Stepper drives one simulation at event granularity. It exposes the three
// step primitives of the shared-clock decomposition — HasPendingEvents,
// PeekNextEventTime, StepNextEvent — so an external runner (the shard
// merging clock in internal/shardsim, a test harness, a live debugger) can
// interleave many engines in global timestamp order while each engine's
// trajectory stays bit-identical to an uninterrupted Run: StepNextEvent is
// exactly one iteration of the same event loop Run executes, and
// PeekNextEventTime only performs the mutations that are idempotent at an
// event boundary (the invariant SnapshotAt/Resume already rely on).
//
// A live world also grows: AdvanceBefore halts the stepper just before a
// point in simulated time and Inject adds a run arriving there, with the
// same result as a stepper built over every run from the start.
//
// A Stepper is single-goroutine: nothing inside is locked. Concurrency
// lives above it — disjoint steppers on disjoint worlds can be driven from
// different goroutines because they share no state.
type Stepper struct {
	e    *engine // nil once Result has retired it to the engine pool
	done bool
	err  error
	// res and clock are the finished run's result and final clock, kept
	// once Result retires the engine.
	res   *Result
	clock float64
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

// Stepper forks the snapshot into a stepper that continues the frozen run
// at event granularity. Like Resume, it deep-copies the engine, so the
// snapshot stays reusable; unlike Resume, the caller controls the pace.
// The fork accepts no Inject: the snapshot halt is not an injection
// boundary.
func (s *Snapshot) Stepper() *Stepper {
	e := s.eng.clone()
	e.haltSet, e.haltAt, e.halted = false, 0, false
	return &Stepper{e: e, horizon: math.Inf(1)}
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
		return s.res.Events
	}
	return s.e.res.Events
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
// halts at that boundary. It is the SnapshotAt halt — no timer fires at
// an effective time ≥ t and no advance lands at or past t — tightened to
// the exact boundary Inject needs: the prefix stepped is the one a world
// that also held a run arriving at t would have stepped. A world whose
// jobs have all finished idles rather than completing, so AdvanceBefore
// never turns HasPendingEvents false; only a simulation error ends the
// stepping. t = +Inf runs every job to its end.
func (s *Stepper) AdvanceBefore(t float64) error {
	if math.IsNaN(t) {
		return fmt.Errorf("sim: advance before NaN")
	}
	if s.done {
		return s.err
	}
	e := s.e
	e.haltSet, e.haltAt, e.haltInject = true, t, true
	var err error
	for stop := false; !stop && err == nil; {
		stop, err = e.step()
	}
	e.haltSet, e.haltAt, e.haltInject, e.halted = false, 0, false, false
	if err != nil {
		s.done, s.err = true, err
		return err
	}
	s.horizon = math.Max(s.horizon, t)
	return nil
}

// Inject adds a run to the live world. Stepping on from here reproduces,
// bit for bit, a stepper built over the original runs plus every injected
// one (in injection order): that holds because nothing at or past the
// run's arrival has been stepped — the stepper stands at an AdvanceBefore
// boundary no later than the arrival, or has not stepped at all. Inject
// returns an error rather than diverge when that is not the case (the
// arrival is behind the horizon, or the stepper moved by StepNextEvent or
// PeekNextEventTime), on a finished stepper, on an invalid run, and under
// a Watchdog, whose per-job state is sized when the run starts. The run's
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
	if err := validateRun(ji, run); err != nil {
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
	e.res.JobStart = append(e.res.JobStart, run.Arrival)
	e.res.JobEnd = append(e.res.JobEnd, 0)
	e.res.JobErrors = append(e.res.JobErrors, nil)
	e.failed = append(e.failed, false)
	e.addRun(ji, run)
	e.jobsLeft++
	return nil
}

// Result finalizes and returns the run's result. It is only valid once
// HasPendingEvents is false; a run that ended in an error returns it here
// too. Result may be called repeatedly (the finalize pass runs once).
// Taking the result retires the stepper's engine to the pool; the Result
// itself belongs to the caller.
func (s *Stepper) Result() (*Result, error) {
	if !s.done {
		return nil, fmt.Errorf("sim: result requested with events still pending")
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.e != nil {
		s.e.finalize()
		s.res, s.clock = s.e.res, s.e.now
		s.e.release()
		s.e = nil
	}
	return s.res, nil
}
