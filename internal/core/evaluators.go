package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"delaystage/internal/dag"
	"delaystage/internal/perfmodel"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// evalMemo is an evaluator's exact memo cache of evaluated
// configurations and the planning-work record it counts into. A
// configuration a scan cut holds the loser marker +Inf rather than its
// Σ JCT.
type evalMemo struct {
	memo  map[string]float64
	stats *PlanStats
}

// lookup answers a configuration's key from the memo, counting a hit. A
// loser marker answers only a scan (scan set), where it loses as the
// exact answer would; to anything else it is a miss, so the
// configuration is simulated afresh.
func (m *evalMemo) lookup(key []byte, scan bool) (float64, bool) {
	mk, ok := m.memo[string(key)]
	if ok && (scan || !math.IsInf(mk, 1)) {
		m.stats.CacheHits++
		return mk, true
	}
	return 0, false
}

// activeSet is an evaluator's active stage set: a mask by stage position
// (nil = every stage) and the memo-key prefix encoding it.
type activeSet struct {
	mask   []bool
	prefix []byte
}

// newActiveSet copies mask, the active set of an n-stage job, and encodes
// its key prefix: a tag byte — 0 for the unrestricted set, 1 for a mask —
// then a bitset of (n+7)/8 bytes over the positions. The tag keeps the
// refinement's unrestricted set apart from a sweep mask that names every
// stage: the two are memoized separately, which the work counters pinned
// by the exact schedule golden rely on.
func newActiveSet(mask []bool, n int) activeSet {
	a := activeSet{mask: slices.Clone(mask), prefix: make([]byte, 1+(n+7)/8)}
	if mask != nil {
		a.prefix[0] = 1
	}
	for i := 0; i < n; i++ {
		if a.on(i) {
			a.prefix[1+i/8] |= 1 << (i % 8)
		}
	}
	return a
}

// on reports whether the stage at position p is active.
func (a *activeSet) on(p int) bool { return a.mask == nil || a.mask[p] }

// fingerprinter builds exact memo keys for (active set, effective delay
// vector) configurations of one job: the active set's prefix, then one
// (uint32 position, float64 bits) pair, little-endian, per non-zero delay
// of an active stage, in ascending position order. The prefix has one
// width for every key of a job and the pairs are fixed-width in strictly
// ascending position, so distinct configurations can never collide; zero
// entries and inactive stages drop out, so "no entry" and "explicit 0"
// (the same evaluation) share one slot. Its buffers are per-evaluator
// scratch, so a key allocates only when it is stored: look it up with
// memo[string(k)], which does not allocate, and convert it only to insert
// a miss.
type fingerprinter struct {
	buf []byte
	// batch holds a candidate scan's keys back to back; ends[i] is where
	// key i ends.
	batch []byte
	ends  []int
	// miss holds the indices of a batch's memo misses.
	miss []int
}

// key returns the configuration's memo key in the scratch buffer, valid
// until the next key call. delays is indexed by position; nil is all
// zero.
func (f *fingerprinter) key(a *activeSet, delays []float64) []byte {
	k := append(f.buf[:0], a.prefix...)
	for p, v := range delays {
		if v != 0 && a.on(p) {
			k = binary.LittleEndian.AppendUint32(k, uint32(p))
			k = binary.LittleEndian.AppendUint64(k, math.Float64bits(v))
		}
	}
	f.buf = k
	return k
}

// batchKey returns key i of the batch, valid until the batch is rebuilt.
func (f *fingerprinter) batchKey(i int) []byte {
	start := 0
	if i > 0 {
		start = f.ends[i-1]
	}
	return f.batch[start:f.ends[i]]
}

// simEvaluator answers Alg. 1's "what happens if stage k is delayed by x̂"
// question by running the coarse fluid simulator (for a placed job, the
// cluster as it is, over its links) on the active sub-job — the faithful
// interpretation of lines 12–14 (stage time under the resulting
// parallelism, completion-time updates of subsequent and interfering
// stages). The sub-job arrives into the evaluator's world
// (Arrival): every answer is Σ JCT over the world's jobs and the sub-job,
// which for Compute's empty world and arrival at 0 is the sub-job's end
// time, bit for bit.
//
// Three layers keep repeated questions cheap (see DESIGN.md, "What-if
// evaluation"): a prepared world per active set (the job, masked to the
// set and undelayed, arriving into the world, unstepped — every
// evaluation forks it with its delays as revisions instead of validating
// and wiring the job again), an exact memo cache over (active set, delay
// vector) keys, and held-world candidate scans (Scan: every candidate of
// one stage shares the simulation with the stage held back, up to the
// candidate's own submission time). The simulator is deterministic, memo
// keys are collision-free, and forks are bit-identical to from-scratch
// runs, so every answer is the Σ JCT of a fresh simulation, bit for bit.
type simEvaluator struct {
	evalMemo
	// simOpt runs the worlds of an empty arrival: the coarse cluster, or
	// with a placement the cluster as it is and its links.
	simOpt    sim.Options
	placement map[dag.StageID]int
	job       *workload.Job
	ids       []dag.StageID // the job's stages by position
	arrival   Arrival
	ji        int // the sub-job's index in its world
	active    activeSet
	// world is the active set's prepared world, only ever forked.
	world *sim.Stepper
	// kept is the last scan's held world, paused where its scanned stage
	// became ready and only ever forked, and keptDelays the delays (by
	// position) it holds; kept is nil when there is none. The next scan
	// under the same active set may start from it (resume).
	kept       *sim.Stepper
	keptDelays []float64

	// Scratch: a fork's delay revisions and a scan's delay vector (see
	// Scan).
	keys    fingerprinter
	updates []sim.DelayUpdate
	held    []float64
}

func newSimEvaluator(opt Options, job *workload.Job, a Arrival, stats *PlanStats) (*simEvaluator, error) {
	ji := 0
	if a.World != nil {
		ji = a.World.Jobs()
	}
	so := sim.Options{Cluster: sim.Coarsen(opt.Cluster), TrackNode: -1, FairByJob: a.FairByJob}
	if opt.Placement != nil {
		so.Cluster, so.Links = opt.Cluster, opt.Links
	}
	e := &simEvaluator{
		evalMemo: evalMemo{memo: map[string]float64{}, stats: stats},
		simOpt:   so, placement: opt.Placement, job: job, ids: job.Graph.StagesView(), arrival: a, ji: ji,
	}
	if err := e.prepare(nil); err != nil {
		return nil, err
	}
	return e, nil
}

// prepare makes mask the active set and builds its world: a fresh
// simulation of the masked job alone when the arrival's world is empty,
// otherwise a fork of that world with the masked job injected. The world
// is answer-only (sim.Stepper.AnswerOnly), and so is every fork of it:
// an evaluation reads one Σ JCT, never a Result, so no world it steps
// keeps usage integrals or tracked series.
func (e *simEvaluator) prepare(mask []bool) error {
	a := e.arrival
	act := newActiveSet(mask, len(e.ids))
	run := sim.JobRun{Job: e.job, Arrival: a.At, Active: act.mask, Placement: e.placement}
	var w *sim.Stepper
	var err error
	if a.World == nil {
		w, err = sim.NewStepper(e.simOpt, []sim.JobRun{run})
	} else if w, err = a.World.Fork(nil); err == nil {
		if err = w.Inject(run); err != nil {
			w.Close()
		}
	}
	if err != nil {
		return err
	}
	w.AnswerOnly()
	if e.world != nil {
		e.world.Close()
	}
	e.dropKept()
	e.world, e.active = w, act
	return nil
}

func (e *simEvaluator) SetActive(active []bool) error { return e.prepare(active) }

// Close retires the prepared world and the kept one.
func (e *simEvaluator) Close() {
	e.world.Close()
	e.dropKept()
}

// dropKept retires the kept world.
func (e *simEvaluator) dropKept() {
	if e.kept != nil {
		e.kept.Close()
		e.kept = nil
	}
}

func (e *simEvaluator) Makespan(delays []float64) (float64, error) {
	fp := e.keys.key(&e.active, delays)
	if mk, ok := e.lookup(fp, false); ok {
		return mk, nil
	}
	mk, err := e.fullRun(delays)
	if err != nil {
		return 0, err
	}
	e.memo[string(fp)] = mk
	e.stats.FullEvals++
	return mk, nil
}

// Scan prices a scan's candidates in one batch. Memo hits are answered
// first. The misses share one held world: the active sub-job arriving
// with the stage's delay set to the largest miss, stepped to the stage's
// ready time tr (a root is ready at arrival). Advancing it along the
// misses in ascending x, each miss but the last is a fork at the boundary
// just before tr + x, where Fork re-arms the stage's pending submission
// timer at tr + x, so the fork only simulates [tr + x, end] and is
// bit-identical to a from-scratch run with delay x; the last miss is the
// held world itself, drained. Each fork is taken and drained in
// candidate order on the calling goroutine, and the first error ends the
// scan.
//
// With a finite best, Scan replays the scan's argmin loop in candidate
// order, memo hits included, and drains each miss with the running best
// less the scan's tolerance as its limit: a drain whose live Σ JCT bound
// shows the candidate cannot beat the running best stops there (a cut),
// and the candidate reads, and is memoised as, the loser marker +Inf.
// best = +Inf drains every miss to its end.
//
// The held world need not start at the arrival: Scan keeps a fork of it
// at the stage's ready time, and the next scan starts from that when the
// Fork contract makes it the world arrive and stepping would reach (see
// resume).
func (e *simEvaluator) Scan(delays []float64, k int, xs, mks []float64, best float64) (int, error) {
	// The held world takes its delays as Fork revisions, so this vector
	// is free again once it is built.
	held := append(e.held[:0], delays...)
	e.held = held
	keys := &e.keys
	keys.batch, keys.ends = keys.batch[:0], keys.ends[:0]
	for _, x := range xs {
		held[k] = x
		keys.batch = append(keys.batch, keys.key(&e.active, held)...)
		keys.ends = append(keys.ends, len(keys.batch))
	}
	miss := keys.miss[:0]
	for i := range xs {
		if mk, ok := e.lookup(keys.batchKey(i), true); ok {
			mks[i] = mk
		} else {
			miss = append(miss, i)
		}
	}
	keys.miss = miss
	hits := len(xs) - len(miss)
	if len(miss) == 0 {
		return hits, nil
	}

	last := miss[len(miss)-1]
	held[k] = xs[last]
	w, err := e.resume(held, k)
	if err != nil {
		return hits, err
	}
	tr, err := e.stepToReady(w, k)
	if err != nil {
		return hits, err
	}
	if !e.root(k) {
		if err := e.keep(w, held); err != nil {
			return hits, err
		}
	}

	kid := e.ids[k]
	cutoff := best < math.Inf(1)
	next := 0 // the next miss
	for i := range xs {
		if next < len(miss) && miss[next] == i {
			next++
			s := w
			if i != last {
				if err = w.AdvanceBefore(tr + xs[i]); err != nil {
					return hits, err
				}
				if s, err = w.Fork([]sim.DelayUpdate{{Job: e.ji, Stage: kid, Delay: xs[i]}}); err != nil {
					return hits, err
				}
			}
			mk, cut, err := s.DrainJCTSum(best - sim.ScanTolerance) // without a cutoff best stays +Inf
			if err != nil {
				return hits, err
			}
			if cut {
				mk = math.Inf(1)
				e.stats.CutEvals++
			}
			mks[i] = mk
		}
		if cutoff && mks[i] < best-sim.ScanTolerance {
			best = mks[i]
		}
	}
	for _, i := range miss {
		e.memo[string(keys.batchKey(i))] = mks[i]
	}
	e.stats.ForkedEvals += len(miss)
	return len(xs), nil
}

// arrive returns a world in which the active sub-job, with the given
// delays (by position), arrives into the evaluator's world, positioned at
// the arrival: a fork of the prepared world revising every non-zero delay
// of an active stage. No stage of the sub-job is ready there yet, so each
// stage reads its revised delay at readiness, exactly as a from-scratch
// run configured with the delays would.
func (e *simEvaluator) arrive(delays []float64) (*sim.Stepper, error) {
	ups := e.updates[:0]
	for p, v := range delays {
		if v != 0 && e.active.on(p) {
			ups = append(ups, sim.DelayUpdate{Job: e.ji, Stage: e.ids[p], Delay: v})
		}
	}
	e.updates = ups
	return e.world.Fork(ups)
}

// resume returns the world a scan of the stage at position k under the
// given delays (by position) starts from, positioned no later than the
// stage's readiness. That is a fork of the kept world when the Fork
// contract makes it bit-identical to arrive's world stepped as far:
//   - the stage is not yet ready there;
//   - every active stage whose delay differs from the kept world's has not
//     been submitted there;
//   - each such stage that is already ready became ready at the kept
//     world's clock, so its new submission time, ready time plus its new
//     delay, is no earlier than that clock.
//
// A stage that became ready earlier held its old submission timer
// through the last advance, which that timer may have cut short; one
// that became ready at the clock had it pushed after the advance, so its
// old delay shaped nothing yet. A stage not yet ready reads its delay at
// readiness. The delays that differ go in as the fork's revisions.
// Otherwise resume falls back to arrive.
func (e *simEvaluator) resume(delays []float64, k int) (*sim.Stepper, error) {
	w := e.kept
	if w == nil {
		return e.arrive(delays)
	}
	if _, ready := w.ReadyTime(e.ji, k); ready {
		return e.arrive(delays)
	}
	now := w.Clock()
	ups := e.updates[:0]
	for p, v := range delays {
		if v == e.keptDelays[p] || !e.active.on(p) {
			continue
		}
		if tl, ok := w.Timeline(e.ji, p); ok && (tl.Start < math.Inf(1) || tl.Ready < math.Inf(1) && tl.Ready != now) {
			return e.arrive(delays)
		}
		ups = append(ups, sim.DelayUpdate{Job: e.ji, Stage: e.ids[p], Delay: v})
	}
	e.updates = ups
	f, err := w.Fork(ups)
	if err == nil {
		e.stats.ReusedScans++
	}
	return f, err
}

// keep replaces the kept world with a fork of w, a scan's held world at
// its scanned stage's ready time, which holds the given delays.
func (e *simEvaluator) keep(w *sim.Stepper, delays []float64) error {
	f, err := w.Fork(nil)
	if err != nil {
		return err
	}
	e.dropKept()
	e.kept = f
	e.keptDelays = append(e.keptDelays[:0], delays...)
	return nil
}

// root reports whether the stage at position k is a root of the active
// sub-job: it has no active parent, so it is ready at arrival.
func (e *simEvaluator) root(k int) bool {
	for _, p := range e.job.Graph.ParentPos(k) {
		if e.active.on(p) {
			return false
		}
	}
	return true
}

// stepToReady steps a world from arrive (or resume) to the event boundary
// where the stage at position k becomes ready and returns its ready time.
// A root of the sub-job is ready at arrival: the world is left unstepped
// (stepping would advance past it) and the ready time is the arrival,
// which the root's recorded ready time can only exceed, by the engine's
// clock tolerance.
func (e *simEvaluator) stepToReady(w *sim.Stepper, k int) (float64, error) {
	if e.root(k) {
		return e.arrival.At, nil
	}
	for {
		if tr, ok := w.ReadyTime(e.ji, k); ok {
			return tr, nil
		}
		if !w.HasPendingEvents() {
			return 0, fmt.Errorf("core: stage %d never became ready", e.ids[k])
		}
		if err := w.StepNextEvent(); err != nil {
			return 0, err
		}
	}
}

// fullRun simulates the active sub-job's arrival (from the committed
// world's pause) and returns Σ JCT over the world: the sub-job's end time
// in Compute's.
//
// Eq. (3) charges the delays x_k to the path times, so a window-width
// objective would let delays shift every path later for free; and
// minimizing only the last *parallel* stage can push the specific parents
// of a sequential tail later while the K-maximum shrinks, hurting the JCT
// the paper reports. The job end subsumes both: with zero-length tails it
// equals the parallel-region completion.
func (e *simEvaluator) fullRun(delays []float64) (float64, error) {
	s, err := e.arrive(delays)
	if err != nil {
		return 0, err
	}
	mk, _, err := s.DrainJCTSum(math.Inf(1))
	return mk, err
}

// approxEvaluator answers the same question from the analytic model's
// Prediction (Options.Approximate): the Eq. 1–3 per-phase layout, no
// simulation at all, so the whole Alg. 1 machinery — growing-active-set
// sweeps, refinement passes, the never-worse guard — runs unchanged at
// O(|K|²) per evaluation. The same BoundEvaluator serves the pruning tier;
// without the work term its Lower never exceeds the Prediction.
//
// Layouts are memoized like the sim evaluator's runs: refine passes and
// the base evaluation of each scan re-ask configurations the previous
// scan already priced, and a layout on a 100+-stage job is thousands of
// float operations. The key is exact, so a hit returns the identical
// float a recomputation would.
type approxEvaluator struct {
	evalMemo
	b         *perfmodel.BoundEvaluator
	n         int     // the job's stage count
	committed float64 // Arrival.Committed, added to every prediction
	active    activeSet
	keys      fingerprinter
}

func newApproxEvaluator(b *perfmodel.BoundEvaluator, n int, committed float64, stats *PlanStats) *approxEvaluator {
	return &approxEvaluator{b: b, n: n, committed: committed, active: newActiveSet(nil, n),
		evalMemo: evalMemo{memo: map[string]float64{}, stats: stats}}
}

func (e *approxEvaluator) SetActive(active []bool) error {
	e.b.SetActive(active)
	e.active = newActiveSet(active, e.n)
	return nil
}

func (e *approxEvaluator) Close() {}

func (e *approxEvaluator) Makespan(delays []float64) (float64, error) {
	fp := e.keys.key(&e.active, delays)
	if mk, ok := e.lookup(fp, false); ok {
		return mk, nil
	}
	mk := e.committed + e.b.PredictAt(delays)
	e.memo[string(fp)] = mk
	e.stats.FullEvals++
	return mk, nil
}

// Scan prices the candidates in order; a layout is never cut, so best is
// not read.
func (e *approxEvaluator) Scan(delays []float64, k int, xs, mks []float64, _ float64) (int, error) {
	x0 := delays[k]
	for i, x := range xs {
		delays[k] = x
		mks[i], _ = e.Makespan(delays)
	}
	delays[k] = x0
	return len(xs), nil
}
