package sim

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Failure handling and recovery: capped retries with exponential backoff
// for lost partitions, lineage-style recomputation of a crashed node's
// shuffle outputs (Spark semantics: the producing partitions are re-run),
// and the runtime watchdog hook that lets a guarded scheduler revise
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
	st := &e.states[it.st]
	st.retries++
	e.res.Retries++
	if it.attempt >= e.opt.MaxAttempts {
		e.failJob(it.key.job, &StageFailureError{
			Job: it.key.job, Stage: it.key.stage, Node: it.node, Attempts: it.attempt,
		})
		return
	}
	backoff := e.opt.RetryBackoff * math.Pow(2, float64(it.attempt-1))
	e.seq++
	e.timers.push(timer{at: e.now + backoff, seq: e.seq, kind: tRetry, st: it.st,
		job: it.key.job, node: it.node, home: it.home, ph: it.ph, attempt: it.attempt + 1, recomp: it.recompute})
	if o := e.opt.Observer; o != nil {
		o.OnEvent(Event{T: e.now, Kind: EvTaskRetry, Job: it.key.job, Stage: it.key.stage,
			Node: it.node, Attempt: it.attempt, Delay: backoff})
	}
	if e.opt.Watchdog != nil {
		e.applyDelayUpdates(e.opt.Watchdog.TaskRetried(it.key.job, it.key.stage, it.node, it.attempt, e.now))
	}
}

// retryTask re-creates a failed partition-phase attempt. The work starts
// over from zero — partial progress died with the executor.
func (e *engine) retryTask(t timer) {
	if e.failed[t.job] {
		return
	}
	st := &e.states[t.st]
	var vol float64
	switch t.ph {
	case phRead, phCompute:
		vol = st.profile.perNodeIn
		if t.ph == phCompute {
			vol = e.computeVol(st)
		}
	case phWrite:
		vol = st.profile.perNodeOut
	}
	if vol <= eps {
		vol = eps * 2 // degenerate volume: completes on the next event
	}
	it := e.newItem()
	// Re-place from the partition's home: if the machine that killed the
	// previous attempts got blacklisted meanwhile, the retry lands on a
	// healthy node instead of dying in the same place again.
	*it = item{key: st.key, st: t.st, home: t.home, node: e.placeNode(t.home), ph: t.ph,
		remaining: vol, volume: vol, attempt: t.attempt, recompute: t.recomp}
	if t.ph == phRead && st.prefetched && st.parentsLeft > 0 && !t.recomp {
		it.capped = true
	}
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
		st := &e.states[i]
		if !st.complete || e.failed[st.key.job] || e.stagesLeft[st.key.job] == 0 {
			continue
		}
		for _, c := range st.children {
			if !e.states[st.base+c].complete {
				lost = append(lost, i)
				break
			}
		}
	}
	slices.SortFunc(lost, func(a, b int) int {
		ka, kb := e.states[a].key, e.states[b].key
		if c := cmp.Compare(ka.job, kb.job); c != 0 {
			return c
		}
		return cmp.Compare(ka.stage, kb.stage)
	})
	for _, i := range lost {
		e.scheduleRecompute(&e.states[i], w)
	}
	if cw, ok := e.opt.Watchdog.(CrashWatcher); ok {
		e.applyDelayUpdates(cw.NodeCrashed(w, e.now))
	}
}

// scheduleRecompute re-runs the producing partition of (stage, node):
// its read→compute→write chain is replayed on that node, and child stages
// that have not finished computing hold off new compute starts until the
// output is restored (the fluid analogue of Spark's FetchFailed →
// parent-resubmit path).
func (e *engine) scheduleRecompute(st *stageState, w int) {
	rk := recompKey{st.key, w}
	if _, active := e.recomps[rk]; active {
		return
	}
	rs := &recompState{}
	for _, c := range st.children {
		cst := &e.states[st.base+c]
		if cst.complete || cst.computeLeft == 0 {
			continue // already past consuming this output
		}
		cst.recomputeHolds++
		rs.held = append(rs.held, cst.idx)
	}
	e.recomps[rk] = rs
	e.recompPhase(st, w, phRead, 1)
}

// recompPhase creates the next item of a recomputation chain, skipping
// zero-volume phases.
func (e *engine) recompPhase(st *stageState, w int, ph phase, attempt int) {
	for {
		var vol float64
		switch ph {
		case phRead:
			vol = st.profile.perNodeIn
		case phCompute:
			vol = e.computeVol(st)
		case phWrite:
			vol = st.profile.perNodeOut
		}
		if vol > eps {
			it := e.newItem()
			*it = item{key: st.key, st: st.idx, home: w, node: e.placeNode(w), ph: ph,
				remaining: vol, volume: vol, attempt: attempt, recompute: true}
			if ph == phCompute {
				e.armCompute(it)
			}
			e.addItem(it)
			return
		}
		if ph == phWrite {
			e.releaseRecompute(st.key, w)
			return
		}
		ph++
	}
}

// finishRecompute advances a recomputation chain when one of its items
// completes.
func (e *engine) finishRecompute(it *item) {
	st := &e.states[it.st]
	if it.ph == phWrite {
		e.releaseRecompute(it.key, it.home)
		return
	}
	e.recompPhase(st, it.home, it.ph+1, 1)
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
			for _, node := range cst.pendingCompute {
				e.startCompute(cst, node)
			}
			cst.pendingCompute = nil
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
	e.res.JobErrors[job] = err
	e.res.JobEnd[job] = e.now
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

// applyDelayUpdates applies a watchdog's revisions: an unsubmitted stage's
// delay-after-ready becomes the given value (already-submitted stages and
// failed jobs ignore revisions; past-due times submit immediately).
func (e *engine) applyDelayUpdates(us []DelayUpdate) {
	for _, u := range us {
		si := e.stateIdx(skey{u.Job, u.Stage})
		if si < 0 {
			continue
		}
		st := &e.states[si]
		if st.submitted || e.failed[u.Job] {
			continue
		}
		d := u.Delay
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			d = 0
		}
		st.hasOverride, st.delayOverride = true, d
		if o := e.opt.Observer; o != nil {
			o.OnEvent(Event{T: e.now, Kind: EvDelayRevised, Job: u.Job, Stage: u.Stage, Node: -1, Delay: d})
		}
		if st.readyValid {
			at := st.tl.Ready + d
			if at < e.now {
				at = e.now
			}
			st.submitAt = at
			e.pushTimer(at, tSubmitStage, si, u.Job)
		}
	}
}
