package perfmodel

import (
	"fmt"
	"math"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// This file implements the planner's one analytic makespan model (DESIGN.md,
// "Two-tier candidate evaluation"): for a (DAG, profiles, cluster, delay
// vector) configuration it answers a deterministic lower bound in O(V+E)
// and a prediction, both without a simulation.
//
//   Lower      = max(critical path at solo rates + delays, Σ work / capacity)
//   Prediction = the Eq. 1–3 per-phase layout: every stage is three
//                consecutive intervals (shuffle read, compute, shuffle write),
//                each stretched by the time-averaged number of same-phase
//                concurrent stages and iterated to a fixed point — what
//                approximate planning minimizes in place of a simulation
//
// Soundness against the fluid simulator (fault-free, no aggressive
// shuffle): the waterfill never allocates beyond contended capacity
// (contended ≤ capacity), every stage's phases are sequential per node and
// start only after ready + delay, so no stage can finish earlier than the
// solo critical path predicts, and no resource can drain its aggregate
// work faster than its aggregate capacity.
//
// Against the Prediction only the critical-path term is provable: every
// phase stretch is ≥ 1, so the layout is at least the solo critical path,
// but its truncated fixed point does not conserve capacity. Pruning the
// analytic tier therefore sets IncludeWorkBound = false.

// Eq. 1's phases, in execution order.
const (
	phaseRead = iota
	phaseCompute
	phaseWrite
	nPhases
)

// BoundConfig tunes a BoundEvaluator for the exact evaluator it prunes.
type BoundConfig struct {
	// IncludeWorkBound folds the aggregate work/capacity term into Lower.
	// Sound against the fluid simulator; the Prediction's truncated fixed
	// point does not conserve capacity, so pruning the analytic tier must
	// leave it off.
	IncludeWorkBound bool
}

// BoundEvaluator computes the lower bound and the Prediction for one job
// on one cluster. Build it on the cluster the scored evaluator actually
// runs against (the coarse view for the sim tier, the raw cluster for the
// analytic tier) or the bound is a bound on the wrong quantity.
//
// The planner (internal/core) works on stage positions (Graph.StagesView
// order): SetActive, ScanLowerAt and PredictAt take an active mask and a
// delay vector indexed by position. The map-taking methods convert at the
// boundary and answer identically.
//
// Not safe for concurrent use: it owns its scratch buffers.
type BoundEvaluator struct {
	cfg BoundConfig
	g   *dag.Graph

	// Stages are indexed in topological order: ids[i] is stage i's ID,
	// pos[i] its position, and topo[p] the index of the stage at position
	// p.
	ids      []dag.StageID
	pos      []int
	topo     []int
	parents  [][]int
	children [][]int
	solo     []float64 // solo read+compute+write per stage
	phase    []float64 // solo read, compute, write of stage i at i*nPhases+ph
	// Full-capacity busy seconds per stage and resource, for the
	// work/capacity lower bound.
	netW, diskW, execW []float64

	activeIdx []bool
	workLB    float64 // Σ active work / capacity (0 when excluded)

	// Bound scratch, reused across calls; dd holds a map-taking call's
	// delays by position.
	up, up2, down, dd []float64

	// Prediction scratch, allocated on the first layout so the
	// pruning-only callers never pay for it.
	lay      [][nPhases + 1]float64 // phase boundaries per stage
	stretch  [][nPhases]float64
	ovS, ovF []float64
	covs     []covEvent
}

// NewBoundEvaluator validates the inputs and precomputes the per-stage
// solo phase times and work terms.
func NewBoundEvaluator(c *cluster.Cluster, job *workload.Job, cfg BoundConfig) (*BoundEvaluator, error) {
	m, err := New(c)
	if err != nil {
		return nil, err
	}
	if job == nil {
		return nil, fmt.Errorf("perfmodel: nil job")
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	topo, err := job.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	n := len(topo)
	// One backing array for every per-stage float input: the pruning-only
	// callers build an evaluator per job, and storing the phase times must
	// not cost them an allocation.
	f := make([]float64, (4+nPhases)*n)
	ix := make([]int, 2*n)
	b := &BoundEvaluator{
		cfg:      cfg,
		g:        job.Graph,
		ids:      topo,
		pos:      ix[:n:n],
		topo:     ix[n:],
		parents:  make([][]int, n),
		children: make([][]int, n),
		solo:     f[:n:n],
		netW:     f[n : 2*n : 2*n],
		diskW:    f[2*n : 3*n : 3*n],
		execW:    f[3*n : 4*n : 4*n],
		phase:    f[4*n:],
	}
	for i, id := range topo {
		b.pos[i] = job.Graph.Pos(id)
		b.topo[b.pos[i]] = i
	}
	var netCap, diskCap, execCap float64
	for _, w := range c.Nodes {
		netCap += w.NetBW
		diskCap += w.DiskBW
		execCap += float64(w.Executors)
	}
	for i, id := range topo {
		p := job.Profiles[id]
		r, cm, wr := m.PhaseBreakdown(p)
		b.solo[i] = r + cm + wr
		ph := b.phase[i*nPhases:]
		ph[phaseRead], ph[phaseCompute], ph[phaseWrite] = r, cm, wr
		if netCap > 0 {
			b.netW[i] = float64(p.ShuffleIn) / netCap
		}
		if diskCap > 0 {
			b.diskW[i] = float64(p.ShuffleOut) / diskCap
		}
		if execCap > 0 && p.ProcRate > 0 {
			b.execW[i] = float64(p.ShuffleIn) / p.ProcRate / execCap
		}
		for _, pp := range job.Graph.ParentPos(b.pos[i]) {
			pi := b.topo[pp]
			b.parents[i] = append(b.parents[i], pi)
			b.children[pi] = append(b.children[pi], i)
		}
	}
	b.activeIdx = make([]bool, n)
	b.setAll()
	return b, nil
}

func (b *BoundEvaluator) setAll() {
	for i := range b.activeIdx {
		b.activeIdx[i] = true
	}
	b.recomputeWorkLB()
}

// SetActive restricts the bounds to the stages whose mask entry, by
// position, is set (nil = all), mirroring how Alg. 1 restricts its
// evaluator while paths are scheduled one by one: inactive stages vanish
// and edges to them are dropped.
func (b *BoundEvaluator) SetActive(mask []bool) {
	if mask == nil {
		b.setAll()
		return
	}
	for i, p := range b.pos {
		b.activeIdx[i] = mask[p]
	}
	b.recomputeWorkLB()
}

func (b *BoundEvaluator) recomputeWorkLB() {
	b.workLB = 0
	if !b.cfg.IncludeWorkBound {
		return
	}
	var net, disk, exec float64
	for i := range b.ids {
		if !b.activeIdx[i] {
			continue
		}
		net += b.netW[i]
		disk += b.diskW[i]
		exec += b.execW[i]
	}
	b.workLB = math.Max(net, math.Max(disk, exec))
}

// delay reads the delay of topo stage i from a vector by position (nil =
// all zero).
func (b *BoundEvaluator) delay(delays []float64, i int) float64 {
	if delays == nil {
		return 0
	}
	return delays[b.pos[i]]
}

// dense returns a map-taking call's delays as a vector by position in
// the evaluator's scratch; nil stays nil, and stages the job lacks are
// ignored.
func (b *BoundEvaluator) dense(delays map[dag.StageID]float64) []float64 {
	if delays == nil {
		return nil
	}
	if b.dd == nil {
		b.dd = make([]float64, len(b.ids))
	}
	clear(b.dd)
	for id, v := range delays {
		if p := b.g.Pos(id); p >= 0 {
			b.dd[p] = v
		}
	}
	return b.dd
}

// cpForward fills dst[i] with the solo-rate completion time of stage i
// (its own delay and solo time included), skipping stage `skip` (-1 =
// none) as if it were inactive and forcing stage `zeroDelay`'s delay to
// zero (-1 = none). Returns the maximum over active stages.
//
// The phases are added one at a time after ready + delay, in layout's
// order: every stretch is ≥ 1, so each partial sum rounds to at most
// layout's, and Lower (no work term) ≤ Prediction holds to the last bit.
func (b *BoundEvaluator) cpForward(dst []float64, delays []float64, skip, zeroDelay int) float64 {
	hi := 0.0
	for i := range b.ids {
		if !b.activeIdx[i] || i == skip {
			dst[i] = 0
			continue
		}
		ready := 0.0
		for _, pi := range b.parents[i] {
			if !b.activeIdx[pi] || pi == skip {
				continue
			}
			if dst[pi] > ready {
				ready = dst[pi]
			}
		}
		d := b.delay(delays, i)
		if i == zeroDelay {
			d = 0
		}
		t := ready + d
		for _, x := range b.phase[i*nPhases : (i+1)*nPhases] {
			t += x
		}
		dst[i] = t
		if t > hi {
			hi = t
		}
	}
	return hi
}

func (b *BoundEvaluator) grow() {
	if n := len(b.ids); len(b.up) < n {
		b.up = make([]float64, n)
		b.up2 = make([]float64, n)
		b.down = make([]float64, n)
	}
}

// Lower returns the certified lower bound on the makespan under the
// delays. Stages outside the active set contribute nothing; their delays
// are ignored.
func (b *BoundEvaluator) Lower(delays map[dag.StageID]float64) float64 {
	b.grow()
	return math.Max(b.cpForward(b.up, b.dense(delays), -1, -1), b.workLB)
}

// ScanLower prepares the O(1)-per-candidate lower bound for a candidate
// scan of stage kid, where every candidate changes only kid's delay:
//
//	lower(x) = max(rest, through + x)
//
// through is the longest solo-rate path through kid *excluding* kid's own
// delay (the caller adds the candidate x); rest covers every path that
// avoids kid, plus the work/capacity term (both x-independent). Any entry
// for kid in delays is ignored. ok is false when kid is unknown or
// inactive — no pruning then.
func (b *BoundEvaluator) ScanLower(kid dag.StageID, delays map[dag.StageID]float64) (through, rest float64, ok bool) {
	p := b.g.Pos(kid)
	if p < 0 {
		return 0, 0, false
	}
	return b.ScanLowerAt(p, b.dense(delays))
}

// ScanLowerAt is ScanLower for the stage at position k, with delays by
// position (nil = all zero).
func (b *BoundEvaluator) ScanLowerAt(k int, delays []float64) (through, rest float64, ok bool) {
	ki := b.topo[k]
	if !b.activeIdx[ki] {
		return 0, 0, false
	}
	b.grow()
	// Upstream: longest path into kid, kid's own delay forced to zero so
	// up[ki] = readiness + solo (the caller's x slots in between).
	b.cpForward(b.up, delays, -1, ki)
	rest = math.Max(b.cpForward(b.up2, delays, ki, -1), b.workLB)
	// Downstream: down[i] = delay_i + solo_i + longest active child tail.
	for i := len(b.ids) - 1; i >= 0; i-- {
		if !b.activeIdx[i] {
			b.down[i] = 0
			continue
		}
		tail := 0.0
		for _, ci := range b.children[i] {
			if !b.activeIdx[ci] {
				continue
			}
			if b.down[ci] > tail {
				tail = b.down[ci]
			}
		}
		b.down[i] = b.delay(delays, i) + b.solo[i] + tail
	}
	tail := 0.0
	for _, ci := range b.children[ki] {
		if !b.activeIdx[ci] {
			continue
		}
		if b.down[ci] > tail {
			tail = b.down[ci]
		}
	}
	return b.up[ki] + tail, rest, true
}

// Span is one stage's predicted execution interval: Start is its
// submission (ready time plus delay), End its completion, both measured
// from job start.
type Span struct {
	Start, End float64
}

// PredictAt returns the Prediction: the completion time, from job start,
// of the last active stage of the Eq. 1–3 per-phase layout under the
// delays, by position (nil = all zero).
func (b *BoundEvaluator) PredictAt(delays []float64) float64 {
	lay := b.layout(delays)
	hi := 0.0
	for i := range b.ids {
		if !b.activeIdx[i] {
			continue
		}
		if lay[i][nPhases] > hi {
			hi = lay[i][nPhases]
		}
	}
	return hi
}

// PredictSpans returns every active stage's span in the Prediction's
// layout — the per-stage view Appendix A.2 scores against the simulator
// and approximate planning feeds the plan-template drift check.
func (b *BoundEvaluator) PredictSpans(delays map[dag.StageID]float64) map[dag.StageID]Span {
	lay := b.layout(b.dense(delays))
	out := make(map[dag.StageID]Span, len(b.ids))
	for i, id := range b.ids {
		if b.activeIdx[i] {
			out[id] = Span{Start: lay[i][0], End: lay[i][nPhases]}
		}
	}
	return out
}

// layout computes every active stage's phase boundaries under the delays:
// every stage is three consecutive phase intervals, and each phase's solo
// duration is stretched by the time-averaged number of *same-phase*
// concurrent stages (the equal-share assumption of Eq. 1). Interval layout
// and stretches are iterated to a fixed point. It reuses the evaluator's
// scratch buffers; the returned slice is only valid until the next call.
func (b *BoundEvaluator) layout(delays []float64) [][nPhases + 1]float64 {
	if n := len(b.ids); len(b.lay) < n {
		b.lay = make([][nPhases + 1]float64, n)
		b.stretch = make([][nPhases]float64, n)
		b.ovS = make([]float64, n)
		b.ovF = make([]float64, n)
	}
	lay, stretch := b.lay, b.stretch
	for i := range stretch {
		stretch[i] = [nPhases]float64{1, 1, 1}
		lay[i] = [nPhases + 1]float64{}
	}
	iters := 4
	if len(b.ids) > 100 {
		// Large trace jobs: two fewer fixed-point passes keep Alg. 1's
		// runtime in the paper's Fig. 15 envelope at negligible accuracy
		// cost (the layout changes little after the second pass).
		iters = 2
	}
	for it := 0; it < iters; it++ {
		for i := range b.ids {
			if !b.activeIdx[i] {
				continue
			}
			ready := 0.0
			for _, pi := range b.parents[i] {
				if !b.activeIdx[pi] {
					continue
				}
				if pe := lay[pi][nPhases]; pe > ready {
					ready = pe
				}
			}
			t := ready + b.delay(delays, i)
			lay[i][0] = t
			for ph := 0; ph < nPhases; ph++ {
				t += float64(b.phase[i*nPhases+ph] * stretch[i][ph])
				lay[i][ph+1] = t
			}
		}
		if it == iters-1 {
			break
		}
		// Per-phase stretch: equal sharing with contention overhead. With
		// a time-averaged overlap count f̄ (self included), the effective
		// rate is 1/(f̄·(1+α(f̄−1))) of solo. The pairwise overlap sums are
		// answered in O(1) per stage from one sorted event sweep — Alg. 1
		// calls this layout thousands of times per Compute on 100+-stage
		// trace jobs (Fig. 15), so the sweep is the planner's hot loop.
		for ph := 0; ph < nPhases; ph++ {
			b.phaseOverlaps(lay, ph)
			for i := range b.ids {
				if !b.activeIdx[i] {
					continue
				}
				s, f := lay[i][ph], lay[i][ph+1]
				if f <= s {
					stretch[i][ph] = 1
					continue
				}
				// Total coverage over [s,f] minus this stage's own f−s.
				overlap := b.ovF[i] - b.ovS[i] - (f - s)
				if overlap < 0 {
					overlap = 0
				}
				fbar := 1 + overlap/(f-s)
				stretch[i][ph] = fbar * sim.ContentionFactor(sim.DefaultContentionOverhead, fbar-1)
			}
		}
	}
	return lay
}

// covEvent is one +1/−1 coverage-count change of stage idx's interval.
type covEvent struct {
	t   float64
	idx int32
	d   int8
}

// sortCovEvents orders events by time ascending (ties in any order) with
// a direct-compare quicksort: the generic/closure sort's indirect compare
// calls alone were ~25% of Alg. 1's analytic-tier runtime on Fig. 15 jobs.
func sortCovEvents(evs []covEvent) {
	for len(evs) > 12 {
		// Median-of-three pivot to first position.
		m := len(evs) / 2
		h := len(evs) - 1
		if evs[m].t < evs[0].t {
			evs[m], evs[0] = evs[0], evs[m]
		}
		if evs[h].t < evs[0].t {
			evs[h], evs[0] = evs[0], evs[h]
		}
		if evs[h].t < evs[m].t {
			evs[h], evs[m] = evs[m], evs[h]
		}
		evs[0], evs[m] = evs[m], evs[0]
		p := evs[0].t
		i, j := 1, h
		for {
			for i <= j && evs[i].t < p {
				i++
			}
			for i <= j && evs[j].t > p {
				j--
			}
			if i > j {
				break
			}
			evs[i], evs[j] = evs[j], evs[i]
			i++
			j--
		}
		evs[0], evs[j] = evs[j], evs[0]
		// Recurse on the smaller half, loop on the larger.
		if j < len(evs)-j {
			sortCovEvents(evs[:j])
			evs = evs[j+1:]
		} else {
			sortCovEvents(evs[j+1:])
			evs = evs[:j]
		}
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].t < evs[j-1].t; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// phaseOverlaps fills ovS/ovF with ∫₀ᵗ coverage du evaluated at every
// active stage's ph-phase start and end: one typed sort plus one event
// sweep, no per-stage binary searches. Every query time is itself an
// event time and the integral is accumulated group-by-group in ascending
// time order, so each recorded value is the exact running sum at its
// event.
func (b *BoundEvaluator) phaseOverlaps(lay [][nPhases + 1]float64, ph int) {
	evs := b.covs[:0]
	for i := range b.ids {
		if !b.activeIdx[i] {
			continue
		}
		s, f := lay[i][ph], lay[i][ph+1]
		if f <= s {
			continue
		}
		evs = append(evs,
			covEvent{t: s, idx: int32(i), d: 1},
			covEvent{t: f, idx: int32(i), d: -1})
	}
	b.covs = evs
	// Ties may land in any order: the integral value at t is recorded for
	// every event of the group before any of the group's ±1 deltas apply,
	// so intra-group order cannot change a result.
	sortCovEvents(evs)
	cur, integral, prev := 0.0, 0.0, 0.0
	for i := 0; i < len(evs); {
		t := evs[i].t
		if i > 0 {
			integral += float64(cur * (t - prev))
		}
		prev = t
		for i < len(evs) && evs[i].t == t {
			ev := evs[i]
			if ev.d > 0 {
				b.ovS[ev.idx] = integral
			} else {
				b.ovF[ev.idx] = integral
			}
			cur += float64(ev.d)
			i++
		}
	}
}
