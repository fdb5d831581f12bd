package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"delaystage/internal/dag"
)

// Failure handling and recovery: capped retries with exponential backoff
// for lost partitions, lineage-style recomputation of a crashed node's
// shuffle outputs (Spark semantics: the producing partitions are re-run),
// and the runtime watchdog hook that lets a guarded scheduler cancel
// not-yet-submitted delays when the plan goes stale. Every entry point is
// a no-op without an Injector/Watchdog, keeping the fault-free engine
// bit-identical to the pre-fault build.

// armCompute attaches the injector's verdicts to a fresh compute attempt:
// a doomed attempt gets its fail point, a straggling partition its
// slowdown.
func (e *engine) armCompute(it *item) {
	inj := e.opt.Faults
	if inj == nil {
		return
	}
	if f, ok := inj.TaskFailure(it.key.job, int(it.key.stage), it.node, it.attempt); ok {
		it.failAt = it.volume * f
	}
	it.slow = inj.Straggler(it.key.job, int(it.key.stage), it.node)
}

// taskFailed handles one lost partition attempt (mid-compute death or a
// node-crash kill): re-queue with exponential backoff, or — once the
// attempt budget is spent — fail the job with a structured error instead
// of fabricating a timeline.
func (e *engine) taskFailed(it *item) {
	if e.failed[it.key.job] {
		return
	}
	e.states[it.st].retries++
	e.res.Retries++
	if it.attempt >= e.opt.MaxAttempts {
		e.failJob(it.key.job, &StageFailureError{
			Job: it.key.job, Stage: it.key.stage, Node: it.node, Attempts: it.attempt,
		})
		return
	}
	backoff := retryBackoff * math.Pow(2, float64(it.attempt-1))
	e.seq++
	e.timers.push(timer{at: e.now + backoff, seq: e.seq, kind: tRetry, st: int32(it.st),
		job: int32(it.key.job), node: int32(it.node), home: int32(it.home), ph: it.ph,
		attempt: int32(it.attempt + 1), recomp: it.recompute})
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvTaskRetry, Job: it.key.job, Stage: it.key.stage,
			Node: it.node, Attempt: it.attempt, Delay: backoff})
	}
	if e.opt.Watchdog != nil {
		e.watch(EvTaskRetry, it.st)
	}
}

// retryTask re-creates a failed partition-phase attempt. The work starts
// over from zero — partial progress died with the executor.
func (e *engine) retryTask(t timer) {
	if e.failed[t.job] {
		return
	}
	si := int(t.st)
	in, st := &e.info[si], &e.states[si]
	var vol float64
	switch t.ph {
	case phRead, phCompute:
		vol = in.profile.perNodeIn
		if t.ph == phCompute {
			vol = e.computeVol(si)
		}
	case phWrite:
		vol = in.profile.perNodeOut
	}
	if vol <= eps {
		vol = eps * 2 // degenerate volume: completes on the next event
	}
	// Re-place from the partition's home: if the machine that killed the
	// previous attempts got blacklisted meanwhile, the retry lands on a
	// healthy node instead of dying in the same place again.
	home := int(t.home)
	it := e.newItem(in, home, e.placeNode(home), t.ph, vol)
	it.attempt, it.recompute = int(t.attempt), t.recomp
	it.capped = t.ph == phRead && st.prefetched && st.parentsLeft > 0 && !t.recomp
	if t.ph == phCompute {
		e.armCompute(it)
	}
	e.addItem(it)
}

// crashNode loses one node: every in-flight task on it dies (re-queued via
// the retry path), and the shuffle outputs it stored for completed stages
// that still have incomplete consumers are recomputed lineage-style.
func (e *engine) crashNode(w int) {
	if w < 0 || w >= e.nNodes {
		return
	}
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvNodeCrash, Job: -1, Stage: -1, Node: w})
	}
	kept := e.items[:0]
	var killed []*item
	for _, it := range e.items {
		if it.node == w && !e.failed[it.key.job] {
			killed = append(killed, it)
		} else {
			kept = append(kept, it)
		}
	}
	e.items = kept
	for _, it := range killed {
		e.bucketRemove(it)
	}
	e.noteFault(w)
	sort.Slice(killed, func(i, j int) bool { return itemOrder(killed[i], killed[j]) })
	for _, it := range killed {
		if r := it.rival; r != nil {
			// The speculation twin survived the crash on another machine
			// and keeps running; nothing to re-queue. (Twins never share
			// a node, so both dying in one crash is impossible.)
			it.rival, r.rival = nil, nil
			continue
		}
		e.taskFailed(it)
	}
	for _, it := range killed {
		e.freeItem(it)
	}
	// Lineage recomputation: completed stages whose output is still
	// needed, in (job, stage ID) order.
	var lost []int
	for i := range e.states {
		in := &e.info[i]
		if !e.states[i].complete || e.failed[in.key.job] || e.stagesLeft[in.key.job] == 0 {
			continue
		}
		for _, c := range in.children {
			if ci := in.base + c; !e.states[ci].complete && !e.info[ci].off {
				lost = append(lost, i)
				break
			}
		}
	}
	slices.SortFunc(lost, func(a, b int) int {
		ka, kb := e.info[a].key, e.info[b].key
		if c := cmp.Compare(ka.job, kb.job); c != 0 {
			return c
		}
		return cmp.Compare(ka.stage, kb.stage)
	})
	for _, i := range lost {
		e.scheduleRecompute(i, w)
	}
	if e.opt.Watchdog != nil {
		e.watch(EvNodeCrash, -1)
	}
}

// scheduleRecompute re-runs the producing partition of (stage, node):
// its read→compute→write chain is replayed on that node, and child stages
// that have not finished computing hold off new compute starts until the
// output is restored (the fluid analogue of Spark's FetchFailed →
// parent-resubmit path).
func (e *engine) scheduleRecompute(si, w int) {
	in := &e.info[si]
	rk := recompKey{in.key, w}
	if _, active := e.recomps[rk]; active {
		return
	}
	rs := &recompState{}
	for _, c := range in.children {
		ci := in.base + c
		cst := &e.states[ci]
		if cst.complete || cst.computeLeft == 0 {
			continue // already past consuming this output
		}
		cst.recomputeHolds++
		rs.held = append(rs.held, ci)
	}
	e.recomps[rk] = rs
	e.recompPhase(si, w, phRead, 1)
}

// recompPhase creates the next item of a recomputation chain, skipping
// zero-volume phases.
func (e *engine) recompPhase(si, w int, ph phase, attempt int) {
	in := &e.info[si]
	for {
		var vol float64
		switch ph {
		case phRead:
			vol = in.profile.perNodeIn
		case phCompute:
			vol = e.computeVol(si)
		case phWrite:
			vol = in.profile.perNodeOut
		}
		if vol > eps {
			it := e.newItem(in, w, e.placeNode(w), ph, vol)
			it.attempt, it.recompute = attempt, true
			if ph == phCompute {
				e.armCompute(it)
			}
			e.addItem(it)
			return
		}
		if ph == phWrite {
			e.releaseRecompute(in.key, w)
			return
		}
		ph++
	}
}

// finishRecompute advances a recomputation chain when one of its items
// completes.
func (e *engine) finishRecompute(it *item) {
	if it.ph == phWrite {
		e.releaseRecompute(it.key, it.home)
		return
	}
	e.recompPhase(it.st, it.home, it.ph+1, 1)
}

// releaseRecompute ends a recomputation: held children may compute again.
func (e *engine) releaseRecompute(k skey, w int) {
	rk := recompKey{k, w}
	rs := e.recomps[rk]
	if rs == nil {
		return
	}
	delete(e.recomps, rk)
	for _, h := range rs.held {
		cst := &e.states[h]
		cst.recomputeHolds--
		if cst.recomputeHolds == 0 && cst.parentsLeft == 0 {
			e.startPending(h)
		}
	}
}

// failJob aborts one job: its items vanish, its error is recorded, and
// its end time freezes at the abort instant. Other jobs keep running.
func (e *engine) failJob(job int, err error) {
	if e.failed[job] {
		return
	}
	e.failed[job] = true
	e.jobErrs[job] = err
	e.jobEnd[job] = e.now
	e.finishWork(job)
	e.ended = append(e.ended, job)
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvJobFailed, Job: job, Stage: -1, Node: -1, Detail: err.Error()})
	}
	if e.stagesLeft[job] > 0 {
		e.stagesLeft[job] = 0
		e.jobsLeft--
	}
	kept := e.items[:0]
	for _, it := range e.items {
		if it.key.job != job {
			kept = append(kept, it)
		} else {
			e.bucketRemove(it)
		}
	}
	e.items = kept
	for rk := range e.recomps {
		if rk.key.job == job {
			delete(e.recomps, rk)
		}
	}
}

// watch asks the Watchdog about the stage at slab index si at checkpoint
// kind (si < 0: a node crash). When it trips, the remaining delays of st's job — of every
// untripped job, on a crash — are cancelled: each stage named in the
// run's Delays, in ascending stage ID, is revised to 0 (already-submitted
// stages and failed jobs ignore revisions; past-due times submit
// immediately). A ready stage gets a fresh submission timer; the
// superseded one no-ops or chases the new time when it fires. A tripped
// job is never asked about again.
func (e *engine) watch(kind EventKind, si int) {
	if e.tripped == nil {
		e.tripped = make([]bool, len(e.runs))
	}
	ev := WatchEvent{Kind: kind, Job: -1, Stage: -1}
	if si >= 0 {
		k := e.info[si].key
		if e.tripped[k.job] {
			return
		}
		ev = WatchEvent{Kind: kind, Job: k.job, Stage: k.stage, Timeline: e.timeline(si),
			Retries: e.states[si].retries, JobStart: e.runs[k.job].Arrival}
	} else if !slices.Contains(e.tripped, false) {
		return
	}
	if !e.opt.Watchdog.Trip(ev) {
		return
	}
	for j, r := range e.runs {
		if e.tripped[j] || ev.Job >= 0 && j != ev.Job {
			continue
		}
		e.tripped[j] = true
		ids := make([]dag.StageID, 0, len(r.Delays))
		for id := range r.Delays {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			if si := e.reviseDelay(e.stateIdx(skey{j, id}), DelayUpdate{Job: j, Stage: id}); si >= 0 {
				e.pushTimer(e.states[si].submitAt, tSubmitStage, si, j)
			}
		}
	}
}

// reviseDelays applies a Fork's revisions like watch's cancellations,
// except that each stage gets the given delay and a ready stage's pending
// submission timer is re-armed in place — same sequence number, new time
// — so the world holds exactly the timers a run configured with the new
// delay from the start would hold. Each update's stage is resolved once,
// to vet the update and to revise it; the first update that names no
// stage, a submitted one or an invalid delay is an error (the caller
// drops the fork).
func (e *engine) reviseDelays(us []DelayUpdate) error {
	for _, u := range us {
		si := e.stateIdx(skey{u.Job, u.Stage})
		switch {
		case si < 0:
			return fmt.Errorf("sim: fork: job %d has no stage %d", u.Job, u.Stage)
		case e.states[si].submitted:
			return fmt.Errorf("sim: fork: job %d stage %d was already submitted at t=%.6g", u.Job, u.Stage, e.now)
		case u.Delay < 0 || math.IsNaN(u.Delay) || math.IsInf(u.Delay, 0):
			return fmt.Errorf("sim: fork: job %d stage %d has invalid delay %v", u.Job, u.Stage, u.Delay)
		}
		if si = e.reviseDelay(si, u); si >= 0 {
			e.rearmSubmit(si)
		}
	}
	return nil
}

// reviseDelay records one revision of the stage at slab index si (-1:
// the world has no such stage) as the stage's delay override and, for a
// stage that is already ready, moves its submitAt to ready time + delay
// (never before now). It returns the stage's slab index when the stage is
// ready and so needs its submission timer set, -1 otherwise.
func (e *engine) reviseDelay(si int, u DelayUpdate) int {
	if si < 0 {
		return -1
	}
	st := &e.states[si]
	if st.submitted || e.failed[u.Job] {
		return -1
	}
	d := u.Delay
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		d = 0
	}
	st.hasOverride, st.delayOverride = true, d
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvDelayRevised, Job: u.Job, Stage: u.Stage, Node: -1, Delay: d})
	}
	if !st.readyValid {
		return -1
	}
	st.submitAt = max(st.tl.ready+d, e.now)
	return si
}

// rearmSubmit moves the pending submission timer of the ready stage at
// slab index si to its submitAt, keeping the timer's sequence number. In a
// world without a watchdog — the only kind Fork accepts — a ready,
// unsubmitted stage of a live job has exactly one such timer: the one
// readiness pushed.
func (e *engine) rearmSubmit(si int) {
	for i, t := range e.timers {
		if t.kind == tSubmitStage && int(t.st) == si {
			e.timers[i].at = e.states[si].submitAt
			e.timers.fix(i)
			return
		}
	}
}
