package sim

import (
	"fmt"
	"maps"
	"math"

	"delaystage/internal/dag"
)

// Snapshot is a checkpoint of a simulation, frozen at an event boundary
// strictly before the requested time. The engine is deterministic and
// RNG-free (fault draws are hash-based, not stream-based), so a snapshot
// can be forked any number of times: each Resume deep-copies the frozen
// engine and continues it, and a resumed run is bit-identical to a
// from-scratch Run of the same configuration — including every
// floating-point accumulation — because the halt only ever happens where
// the event loop would re-enter idempotently (before a timer pop, or
// before an advance).
//
// The intended use is what-if evaluation (internal/core's sim evaluator):
// all delay candidates of one stage share the simulation prefix up to that
// stage's ready time, so a scan of C candidates costs one prefix plus C
// suffixes instead of C full runs.
type Snapshot struct {
	eng *engine
	// At is the stop-before time the snapshot was requested at. The
	// engine's clock (Clock) is at the last event boundary before it.
	At float64
}

// Clock returns the simulated time the snapshot is frozen at — the last
// event boundary strictly before the requested stop time (or the run's end
// when it finished earlier).
func (s *Snapshot) Clock() float64 { return s.eng.now }

// Completed reports whether the simulation already ran to completion
// before the requested stop time (Resume then just finalizes the result).
func (s *Snapshot) Completed() bool { return !s.eng.halted }

// SnapshotAt validates the configuration exactly as Run does, simulates
// until just before simulated time reaches stopBefore, and freezes the
// engine there. Each run's Delays map is deep-copied, so the caller may
// keep mutating it between forks.
//
// Options carrying an Observer or Watchdog are rejected: both receive
// events synchronously and accumulate external state the fork cannot
// duplicate. Faults are allowed — the injector's draws are pure functions
// of (seed, task attempt), shared read-only across forks.
func SnapshotAt(opt Options, runs []JobRun, stopBefore float64) (*Snapshot, error) {
	if opt.Observer != nil {
		return nil, fmt.Errorf("sim: snapshot with an Observer is not supported (observer state cannot be forked)")
	}
	if opt.Watchdog != nil {
		return nil, fmt.Errorf("sim: snapshot with a Watchdog is not supported (watchdog state cannot be forked)")
	}
	if stopBefore < 0 || math.IsNaN(stopBefore) || math.IsInf(stopBefore, 0) {
		return nil, fmt.Errorf("sim: invalid snapshot time %v", stopBefore)
	}
	opt, err := prepare(opt, runs)
	if err != nil {
		return nil, err
	}
	frozen := make([]JobRun, len(runs))
	copy(frozen, runs)
	for i := range frozen {
		if frozen[i].Delays != nil {
			d := make(map[dag.StageID]float64, len(frozen[i].Delays))
			for id, v := range frozen[i].Delays {
				d[id] = v
			}
			frozen[i].Delays = d
		}
	}
	e := newEngine(opt, frozen)
	e.haltSet = true
	e.haltAt = stopBefore
	e.setup()
	if err := e.loop(); err != nil {
		return nil, err
	}
	return &Snapshot{eng: e, At: stopBefore}, nil
}

// Resume forks the snapshot and runs the copy to completion, optionally
// revising the submission delays of stages first. The snapshot itself is
// never mutated — Resume may be called repeatedly, and concurrently from
// multiple goroutines.
//
// Updates may only name stages that were not yet submitted at the
// checkpoint (submitted work cannot be un-submitted; such updates return
// an error). A revised stage that was not yet *ready* at the checkpoint
// simply reads the new delay when it becomes ready, which keeps the run
// bit-identical to a from-scratch Run with that delay in the run's Delays
// map — the delay value is only ever read at readiness, after the halt
// point. A stage that was already ready (but still waiting out its old
// delay) is moved like a watchdog revision: exact in semantics, but the
// superseded submission timer makes the event sequence differ from a
// from-scratch run's, so bit-identity is not guaranteed in that case.
func (s *Snapshot) Resume(updates []DelayUpdate) (*Result, error) {
	e := s.eng.clone()
	defer e.release()
	e.haltSet, e.haltAt, e.halted = false, 0, false
	for _, u := range updates {
		si := e.stateIdx(skey{u.Job, u.Stage})
		if si < 0 {
			return nil, fmt.Errorf("sim: resume: job %d has no stage %d", u.Job, u.Stage)
		}
		st := &e.states[si]
		if st.submitted {
			return nil, fmt.Errorf("sim: resume: job %d stage %d was already submitted at the checkpoint (t=%.6g)", u.Job, u.Stage, s.eng.now)
		}
		if u.Delay < 0 || math.IsNaN(u.Delay) || math.IsInf(u.Delay, 0) {
			return nil, fmt.Errorf("sim: resume: job %d stage %d has invalid delay %v", u.Job, u.Stage, u.Delay)
		}
		st.hasOverride, st.delayOverride = true, u.Delay
		if st.readyValid {
			at := st.tl.Ready + u.Delay
			if at < e.now {
				at = e.now
			}
			st.submitAt = at
			e.pushTimer(at, tSubmitStage, si, u.Job)
		}
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	e.finalize()
	return e.res, nil
}

// Resume is the package-level form of (*Snapshot).Resume: continue a
// snapshot under extra delay revisions.
func Resume(s *Snapshot, updates []DelayUpdate) (*Result, error) {
	return s.Resume(updates)
}

// clone deep-copies the engine's mutable state into an engine from the
// pool. Immutable inputs — the cluster capacities, job graphs and their
// position lists, the fault injector — are shared; everything the event
// loop writes is copied, so the original can be resumed again later.
// Scratch buffers are not copied (they carry no state across events).
//
// The stage slab and the items copy in bulk: stage links are slab
// indices and need no rewiring, an item's owning stage is a slab index
// too, and the per-node buckets are rebuilt as the e.items subsequences
// they are — so their order, which fixes the floating-point accumulation
// order of the rates passes, carries over exactly. Only a live
// speculation race needs an old→new item map to rewire its rival links.
func (e *engine) clone() *engine {
	c := resetEngine(e.opt, e.runs)
	c.seq = e.seq
	c.now = e.now
	c.haltSet, c.haltAt, c.halted = e.haltSet, e.haltAt, e.halted
	c.lastTrack = e.lastTrack
	c.cpuBusyInt = e.cpuBusyInt
	c.netBytesInt = e.netBytesInt
	c.diskBytesInt = e.diskBytesInt
	c.jobsLeft = e.jobsLeft
	c.stagesLeft = append(c.stagesLeft, e.stagesLeft...)
	copy(c.failed, e.failed)
	c.jobBase = append(c.jobBase, e.jobBase...)
	c.availW = append(c.availW, e.availW...)

	// The slab copies whole; the few per-stage slices and maps the loop
	// mutates in place get fresh backing.
	c.states = append(c.states, e.states...)
	for i := range c.states {
		st := &c.states[i]
		if st.pendingCompute != nil {
			st.pendingCompute = append([]int(nil), st.pendingCompute...)
		}
		if st.compDurs != nil {
			st.compDurs = append([]float64(nil), st.compDurs...)
		}
		if st.specDone != nil {
			st.specDone = maps.Clone(st.specDone)
		}
	}

	rivals := false
	for _, it := range e.items {
		ni := c.newItem()
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
	c.res = e.res.clone()
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

// clone deep-copies a result in progress (every slice gets fresh backing).
func (r *Result) clone() *Result {
	c := *r
	c.Timelines = append(make([]StageTimeline, 0, cap(r.Timelines)), r.Timelines...)
	c.JobEnd = append([]float64(nil), r.JobEnd...)
	c.JobStart = append([]float64(nil), r.JobStart...)
	c.JobErrors = append([]error(nil), r.JobErrors...)
	c.Node = r.Node.clone()
	c.Cluster = r.Cluster.clone()
	c.Occupancy = append([]OccupancySegment(nil), r.Occupancy...)
	return &c
}

func (u NodeUsage) clone() NodeUsage {
	return NodeUsage{
		CPUBusy:  append(Series(nil), u.CPUBusy...),
		NetRate:  append(Series(nil), u.NetRate...),
		DiskRate: append(Series(nil), u.DiskRate...),
	}
}
