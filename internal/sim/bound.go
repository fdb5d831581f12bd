package sim

// The live Σ JCT lower bound that lets Stepper.DrainJCTSum stop a drain
// early. Each job keeps the solo work of the phases it has not started
// yet — bytes to read, executor-seconds to compute, bytes to write — and
// the least time that work needs on the whole cluster (DAGPS's work over
// capacity). A finished job then contributes its JCT, an unfinished one
// the time it has already spent plus that remaining need:
//
//	Σ JCT ≥ Σ_done (end − start) + Σ_arrived (now − start) + Σ_unfinished need
//
// Contention, task caps, speculation clones, prefetch overhead, slow
// nodes, retries and links only add time or work, so the sum stays a
// floor. A job that can abort (Options.Faults) may end before its work is
// done, so with faults the need term drops out.
//
// Only answer-only worlds keep the bound: they are the what-if worlds
// whose drains it may cut, and every other run pays nothing for it. A
// world turning answer-only derives it from its stage slab (trackWork);
// from then on the aggregates move in O(1) when a run is added, a phase
// starts, a job arrives or a job ends, and forks copy them, so reading
// the bound costs O(1) per step.

// jobWork is one job's share of the bound.
type jobWork struct {
	// left is the least time the solo work of the job's unstarted phases
	// needs on the whole cluster, by phase: bytes to read over the
	// cluster's network bandwidth, executor-seconds to compute over its
	// executors, bytes to write over its disk bandwidth.
	left [3]float64
	// need is the largest of them.
	need    float64
	arrived bool
	done    bool
}

// ScanTolerance is the planner's improvement tolerance: a candidate wins
// a scan only with a makespan below best − ScanTolerance. Every lower
// bound lb that discards candidates unevaluated — the analytic tier's and
// the drain cut's — is first lowered by the float allowance
// ScanTolerance·(1 + lb) (jctSlack), and discards only once that floor
// reaches best − ScanTolerance. A discarded candidate is therefore one
// the improvement test provably rejects.
const ScanTolerance = 1e-9

// jctSlack is the bound's float allowance: the bound less it never
// exceeds the drained Σ JCT (FuzzDrainBound).
func jctSlack(lb float64) float64 { return float64(ScanTolerance * (1 + lb)) }

// partitions is how many partitions the stage runs: one per node, or the
// one of a placed stage.
func (e *engine) partitions(in *stageInfo) float64 {
	if in.node >= 0 {
		return 1
	}
	return float64(e.nNodes)
}

// needOf is the least time the unstarted work needs: its slowest phase.
func needOf(left *[3]float64) float64 {
	need := 0.0
	for _, t := range left {
		if t > need {
			need = t
		}
	}
	return need
}

// trackWork makes the engine keep the bound, deriving every job's share
// from the stage slab.
func (e *engine) trackWork() {
	e.work = e.work[:0]
	e.lbDone, e.lbStarts, e.lbNeed, e.lbArrived = 0, 0, 0, 0
	for j := range e.runs {
		e.addWork(j)
	}
}

// addWork derives job j's share of the bound from its stages and folds it
// into the aggregates. A job is over once no stage is left (it completed
// or aborted; a job without an active stage is over before it starts, its
// JCT its zero end less its arrival), and it has arrived once a stage is
// ready (its arrival readies its roots). Of a stage not yet submitted
// every phase is unstarted. A submitted one has started every read; a
// partition has started computing once its read is done and it is not
// held back (pendingCompute), and writing once its compute is done.
func (e *engine) addWork(j int) {
	if e.stagesLeft[j] == 0 {
		e.lbDone += e.jobEnd[j] - e.jobStart[j]
		e.work = append(e.work, jobWork{done: true})
		return
	}
	var w jobWork
	base := e.jobBase[j]
	for i := base; i < base+e.runs[j].Job.Graph.Len(); i++ {
		in, st := &e.info[i], &e.states[i]
		if in.off {
			continue
		}
		w.arrived = w.arrived || st.readyValid
		n := e.partitions(in)
		reads, computes, writes := n, n, n
		if st.submitted {
			read := n - float64(st.readsLeft) // partitions whose reads are done
			if in.node >= 0 && st.readsLeft > 0 {
				read = 0 // a placed stage's reads are flows into its one partition
			}
			reads, computes, writes = 0, n-read+float64(len(e.pending[i])), float64(st.computeLeft)
		}
		w.left[phRead] += float64(in.profile.perNodeIn * reads * e.perCap[phRead])
		w.left[phCompute] += float64(in.profile.computeSec * computes * e.perCap[phCompute])
		w.left[phWrite] += float64(in.profile.perNodeOut * writes * e.perCap[phWrite])
	}
	w.need = needOf(&w.left)
	e.lbNeed += w.need
	if w.arrived {
		e.lbArrived++
		e.lbStarts += e.jobStart[j]
	}
	e.work = append(e.work, w)
}

// startWork takes v of phase ph off the job's unstarted work: the phase
// of one of its partitions — every read of its stage, on submission —
// has been created.
func (e *engine) startWork(job int, ph phase, v float64) {
	if !e.answerOnly {
		return
	}
	w := &e.work[job]
	if w.done {
		return
	}
	t := w.left[ph]
	w.left[ph] = t - float64(v*e.perCap[ph])
	if t < w.need {
		return // another phase is slower still: the need stands
	}
	need := needOf(&w.left)
	e.lbNeed += need - w.need
	w.need = need
}

// arriveWork starts the job's clock in the bound.
func (e *engine) arriveWork(job int) {
	if !e.answerOnly {
		return
	}
	w := &e.work[job]
	if w.done {
		return // no active stage: over at its arrival
	}
	w.arrived = true
	e.lbArrived++
	e.lbStarts += e.jobStart[job]
}

// finishWork closes the job's share: it completed or aborted, so it
// contributes its JCT.
func (e *engine) finishWork(job int) {
	if !e.answerOnly {
		return
	}
	w := &e.work[job]
	if w.done {
		return
	}
	if w.arrived {
		e.lbArrived--
		e.lbStarts -= e.jobStart[job]
	}
	e.lbNeed -= w.need
	e.lbDone += e.jobEnd[job] - e.jobStart[job]
	*w = jobWork{done: true}
}

// jctFloor is the live lower bound on the world's Σ JCT less its slack.
func (e *engine) jctFloor() float64 {
	lb := e.lbDone + float64(float64(e.lbArrived)*e.now) - e.lbStarts
	if e.opt.Faults == nil {
		lb += e.lbNeed
	}
	return lb - jctSlack(lb)
}
