// Package attr turns a simulation's event stream into an explanation of
// where the time went: per-stage decomposition against ideal isolated
// phase durations, a stage-pair × resource contention matrix with an
// interleaving-efficiency score, and the DAG critical path with per-stage
// slack (delay sensitivity).
//
// Everything here is computed from the typed event stream plus static
// inputs (cluster, jobs, the engine's contention coefficient) — never
// from live engine internals — so an offline pass over a JSONL event log
// (cmd/analyze) reproduces the live report of cmd/simulate byte for
// byte. The contention model is the engine's sharing rule: k consumers
// of one resource each get capacity/(k·cf) with cf =
// sim.ContentionFactor(α, k−1); the fraction 1−1/(k·cf) of each
// overlapped second is counted as contention wait and attributed evenly
// to the co-runners.
package attr

import (
	"fmt"
	"math"
	"sort"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Context is the static side of attribution: what the events alone cannot
// carry. It must describe the run that produced the events.
type Context struct {
	Cluster *cluster.Cluster
	// Jobs[i] is the workload of job run index i (JobRun order).
	Jobs []*workload.Job
	// Alpha is the engine's ContentionOverhead with the same sentinel
	// convention as sim.Options (sim.ContentionAlpha resolves it).
	Alpha float64
}

// Collector buffers the event stream for a later Build. Attach it via
// sim.Options.Observer (compose with obs.Multi alongside exporters).
type Collector struct {
	Events []sim.Event
}

// OnEvent implements sim.Observer.
func (c *Collector) OnEvent(ev sim.Event) { c.Events = append(c.Events, ev) }

// StageRef identifies one stage of one job run.
type StageRef struct {
	Job   int
	Stage dag.StageID
}

func (r StageRef) less(o StageRef) bool {
	if r.Job != o.Job {
		return r.Job < o.Job
	}
	return r.Stage < o.Stage
}

// String renders the compact form used in reports, e.g. "j0s3".
func (r StageRef) String() string { return fmt.Sprintf("j%ds%d", r.Job, r.Stage) }

// StageAttr is the per-stage time decomposition.
type StageAttr struct {
	Ref StageRef
	// Lifecycle times (absolute seconds) reconstructed from events.
	Ready, Submit, End float64
	// DelayWait is scheduler-imposed holding: Submit − Ready.
	DelayWait float64
	// Actual is the stage's wall time once submitted: End − Submit.
	Actual float64
	// Ideal is the stage's isolated duration — the slowest node's
	// read+compute+write with nothing else on the cluster.
	Ideal float64
	// Wait[res] is the stage's contention wait on that resource: seconds
	// lost to sharing, summed over nodes (so it can exceed the stage's
	// wall time on wide clusters; divide by node count for a per-node
	// view).
	Wait [3]float64
	// Slack is how much later the stage could finish without moving its
	// job's completion time (0 on the critical path) — equivalently, how
	// much extra submission delay the stage tolerates.
	Slack float64
	// Critical marks membership in the job's critical path.
	Critical bool
	// Retries is the number of failed partition attempts absorbed.
	Retries int
	// Prefetch marks an AggShuffle prefetch submission.
	Prefetch bool
}

// TotalWait sums the per-resource contention waits.
func (s *StageAttr) TotalWait() float64 { return s.Wait[0] + s.Wait[1] + s.Wait[2] }

// PairContention is one cell of the stage-pair × resource matrix: the
// loss-weighted seconds the two stages spent contending for Res. A and B
// are ordered (A.less(B)).
type PairContention struct {
	A, B    StageRef
	Res     sim.Resource
	Seconds float64
}

// FaultSummary aggregates the run's fault and mitigation events:
// machine crashes, the retry churn they caused, and what speculation and
// blacklisting did about it. It separates failure-induced time (retry
// backoff, recomputation) from the contention waits the rest of the
// report attributes — a run can be slow because stages fought for a NIC
// or because a machine died under it, and the two call for different
// fixes.
type FaultSummary struct {
	// Retries counts failed partition attempts re-queued; BackoffSeconds
	// sums the retry backoff imposed before each re-attempt.
	Retries        int
	BackoffSeconds float64
	// NodeCrashes lists crashed node indices in event order (a node can
	// appear once only; crashes are permanent).
	NodeCrashes []int
	// SpecLaunched / SpecWins count speculation clones started and races
	// decided; Blacklisted lists nodes removed from placement.
	SpecLaunched int
	SpecWins     int
	Blacklisted  []int
}

// JobPath is one job's critical path through its DAG.
type JobPath struct {
	Job    int
	Stages []dag.StageID // root → final stage
	// End is the job's completion time; Length the path's total response
	// time (ready-to-end of every stage on it).
	End, Length float64
}

// Report is the full attribution of one run.
type Report struct {
	Alpha    float64
	Makespan float64
	// Stages sorted by (job, stage).
	Stages []StageAttr
	// Pairs sorted by descending Seconds, then (A, B, Res).
	Pairs []PairContention
	// TotalContention is Σ stage wait seconds across all resources.
	TotalContention float64
	// Efficiency is the interleaving-efficiency score 1 − wait/active in
	// [0,1]: 1 means every overlapped second was free (perfect
	// interleaving of unlike phases), lower means co-scheduled stages
	// fought for the same resource.
	Efficiency float64
	// Paths holds one critical path per completed job, job order.
	Paths []JobPath
	// JobErrors carries job_failed detail strings, job order ("" = ok).
	JobErrors []string
	// Faults is non-nil only when the event stream contains fault or
	// mitigation events; fault-free runs render no failure section.
	Faults *FaultSummary
}

// Stage returns the attribution row for ref, or nil.
func (r *Report) Stage(ref StageRef) *StageAttr {
	for i := range r.Stages {
		if r.Stages[i].Ref == ref {
			return &r.Stages[i]
		}
	}
	return nil
}

// stageTimes is the per-stage event reconstruction scratch.
type stageTimes struct {
	ready, submit, end    float64
	haveReady, haveSubmit bool
	haveEnd               bool
	prefetch              bool
	retries               int
	readDone, computeDone map[int]float64
	writeDone             map[int]float64
}

// interval is one stage's occupation of (node, res).
type interval struct {
	ref        StageRef
	node       int
	res        sim.Resource
	start, end float64
}

// Build computes the attribution report for one run's event stream.
// Events must be in emission order (as delivered to an observer or
// decoded from a JSONL log). The result depends only on (ctx, events),
// never on wall-clock state, so it is deterministic and reproducible
// offline.
func Build(ctx Context, events []sim.Event) (*Report, error) {
	if ctx.Cluster == nil {
		return nil, fmt.Errorf("attr: nil cluster")
	}
	if len(ctx.Jobs) == 0 {
		return nil, fmt.Errorf("attr: no jobs")
	}

	st := map[StageRef]*stageTimes{}
	get := func(ref StageRef) *stageTimes {
		s := st[ref]
		if s == nil {
			s = &stageTimes{
				readDone:    map[int]float64{},
				computeDone: map[int]float64{},
				writeDone:   map[int]float64{},
			}
			st[ref] = s
		}
		return s
	}
	jobErr := make([]string, len(ctx.Jobs))
	makespan := 0.0
	var fs FaultSummary
	haveFaults := false
	for _, ev := range events {
		if ev.T > makespan {
			makespan = ev.T
		}
		// Fault and mitigation events aggregate before the per-job guard:
		// crashes and blacklistings are cluster-level (Job = -1).
		switch ev.Kind {
		case sim.EvTaskRetry:
			fs.Retries++
			fs.BackoffSeconds += ev.Delay
			haveFaults = true
		case sim.EvNodeCrash:
			fs.NodeCrashes = append(fs.NodeCrashes, ev.Node)
			haveFaults = true
		case sim.EvSpecLaunched:
			fs.SpecLaunched++
			haveFaults = true
		case sim.EvSpecWin:
			fs.SpecWins++
			haveFaults = true
		case sim.EvNodeBlacklisted:
			fs.Blacklisted = append(fs.Blacklisted, ev.Node)
			haveFaults = true
		}
		if ev.Job < 0 || ev.Job >= len(ctx.Jobs) {
			continue
		}
		ref := StageRef{ev.Job, ev.Stage}
		switch ev.Kind {
		case sim.EvStageReady:
			s := get(ref)
			if !s.haveReady {
				s.ready, s.haveReady = ev.T, true
			}
		case sim.EvStageSubmitted:
			s := get(ref)
			if !s.haveSubmit {
				s.submit, s.haveSubmit = ev.T, true
				s.prefetch = ev.Prefetch
			}
		case sim.EvReadDone:
			get(ref).readDone[ev.Node] = ev.T
		case sim.EvComputeDone:
			get(ref).computeDone[ev.Node] = ev.T
		case sim.EvWriteDone:
			get(ref).writeDone[ev.Node] = ev.T
		case sim.EvStageCompleted:
			s := get(ref)
			s.end, s.haveEnd = ev.T, true
		case sim.EvTaskRetry:
			get(ref).retries++
		case sim.EvJobFailed:
			jobErr[ev.Job] = ev.Detail
			if jobErr[ev.Job] == "" {
				jobErr[ev.Job] = "failed"
			}
		}
	}

	// Per-stage rows, (job, stage) order.
	refs := make([]StageRef, 0, len(st))
	for ref := range st {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].less(refs[j]) })

	rep := &Report{Alpha: sim.ContentionAlpha(ctx.Alpha), Makespan: makespan, JobErrors: jobErr}
	if haveFaults {
		rep.Faults = &fs
	}
	rows := map[StageRef]*StageAttr{}
	var intervals []interval
	for _, ref := range refs {
		s := st[ref]
		if !s.haveSubmit || !s.haveEnd {
			continue // incomplete stage (failed/aborted job): no row
		}
		a := StageAttr{
			Ref: ref, Ready: s.ready, Submit: s.submit, End: s.end,
			DelayWait: s.submit - s.ready, Actual: s.end - s.submit,
			Ideal: idealDuration(ctx, ref), Retries: s.retries,
			Prefetch: s.prefetch,
		}
		rep.Stages = append(rep.Stages, a)
		for node, rd := range s.readDone {
			if rd > s.submit {
				intervals = append(intervals, interval{ref, node, sim.ResNet, s.submit, rd})
			}
			if cd, ok := s.computeDone[node]; ok && cd > rd {
				intervals = append(intervals, interval{ref, node, sim.ResCPU, rd, cd})
				if wd, ok := s.writeDone[node]; ok && wd > cd {
					intervals = append(intervals, interval{ref, node, sim.ResDisk, cd, wd})
				}
			}
		}
	}
	for i := range rep.Stages {
		rows[rep.Stages[i].Ref] = &rep.Stages[i]
	}

	sweepContention(rep, rows, intervals, sim.ContentionAlpha(ctx.Alpha))
	criticalPaths(ctx, rep, rows)

	sort.Slice(rep.Pairs, func(i, j int) bool {
		a, b := rep.Pairs[i], rep.Pairs[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		if a.A != b.A {
			return a.A.less(b.A)
		}
		if a.B != b.B {
			return a.B.less(b.B)
		}
		return a.Res < b.Res
	})
	return rep, nil
}

// idealDuration is the stage's isolated wall time: on each node the
// partition reads ShuffleIn/n at the full NIC, computes it at the node's
// (task-capped) executor throughput, writes ShuffleOut/n at the full
// disk; the stage ends when the slowest node does.
func idealDuration(ctx Context, ref StageRef) float64 {
	job := ctx.Jobs[ref.Job]
	p, ok := job.Profiles[ref.Stage]
	if !ok {
		return 0
	}
	n := float64(len(ctx.Cluster.Nodes))
	perIn := float64(p.ShuffleIn) / n
	perOut := float64(p.ShuffleOut) / n
	tpn := float64(p.Tasks) / n
	worst := 0.0
	for _, node := range ctx.Cluster.Nodes {
		ex := float64(node.Executors)
		if tpn > 0 && ex > tpn {
			ex = tpn
		}
		d := perIn/node.NetBW + perIn/(ex*p.ProcRate) + perOut/node.DiskBW
		if d > worst {
			worst = d
		}
	}
	return worst
}

// sweepContention runs a sweep line over each (node, resource) and
// distributes sharing losses to stages and stage pairs.
func sweepContention(rep *Report, rows map[StageRef]*StageAttr, intervals []interval, alpha float64) {
	type lane struct {
		node int
		res  sim.Resource
	}
	byLane := map[lane][]interval{}
	totalActive := 0.0
	for _, iv := range intervals {
		byLane[lane{iv.node, iv.res}] = append(byLane[lane{iv.node, iv.res}], iv)
		totalActive += iv.end - iv.start
	}
	lanes := make([]lane, 0, len(byLane))
	for l := range byLane {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].node != lanes[j].node {
			return lanes[i].node < lanes[j].node
		}
		return lanes[i].res < lanes[j].res
	})

	type pairKey struct {
		a, b StageRef
		res  sim.Resource
	}
	pairs := map[pairKey]float64{}
	totalWait := 0.0
	for _, l := range lanes {
		ivs := byLane[l]
		// Elementary segments between sorted boundaries.
		bounds := make([]float64, 0, 2*len(ivs))
		for _, iv := range ivs {
			bounds = append(bounds, iv.start, iv.end)
		}
		sort.Float64s(bounds)
		active := make([]StageRef, 0, 8)
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			if hi <= lo {
				continue
			}
			active = active[:0]
			for _, iv := range ivs {
				if iv.start <= lo && iv.end >= hi {
					active = append(active, iv.ref)
				}
			}
			k := len(active)
			if k < 2 {
				continue
			}
			sort.Slice(active, func(x, y int) bool { return active[x].less(active[y]) })
			cf := sim.ContentionFactor(alpha, float64(k-1))
			loss := float64((hi - lo) * (1 - 1/(float64(k)*cf)))
			share := loss / float64(k-1)
			for _, ref := range active {
				if row := rows[ref]; row != nil {
					row.Wait[l.res] += loss
				}
				totalWait += loss
			}
			for x := 0; x < k; x++ {
				for y := x + 1; y < k; y++ {
					// Each member loses `loss`, spread over its k−1
					// co-runners; the pair cell gets both directions.
					pairs[pairKey{active[x], active[y], l.res}] += 2 * share
				}
			}
		}
	}
	rep.TotalContention = totalWait
	if totalActive > 0 {
		rep.Efficiency = 1 - totalWait/totalActive
		if rep.Efficiency < 0 {
			rep.Efficiency = 0
		} else if rep.Efficiency > 1 {
			rep.Efficiency = 1
		}
	} else {
		rep.Efficiency = 1
	}
	for k, v := range pairs {
		rep.Pairs = append(rep.Pairs, PairContention{A: k.a, B: k.b, Res: k.res, Seconds: v})
	}
}

// criticalPaths computes per-job slack (latest finish keeping the job end
// fixed, minus actual finish) and extracts the path of zero-slack stages
// from a root to the job's final stage.
func criticalPaths(ctx Context, rep *Report, rows map[StageRef]*StageAttr) {
	for ji, job := range ctx.Jobs {
		if rep.JobErrors[ji] != "" {
			continue
		}
		g := job.Graph
		order, err := g.TopoSort()
		if err != nil {
			continue
		}
		// Job end = latest stage end.
		jobEnd := math.Inf(-1)
		complete := true
		for _, id := range g.StagesView() {
			row := rows[StageRef{ji, id}]
			if row == nil {
				complete = false
				break
			}
			if row.End > jobEnd {
				jobEnd = row.End
			}
		}
		if !complete {
			continue
		}
		// Backward pass: latest finish of s so that no child slips.
		lateFinish := map[dag.StageID]float64{}
		for i := len(order) - 1; i >= 0; i-- {
			id := order[i]
			lf := jobEnd
			for _, c := range g.ChildrenView(id) {
				crow := rows[StageRef{ji, c}]
				resp := crow.End - crow.Ready
				if v := lateFinish[c] - resp; v < lf {
					lf = v
				}
			}
			lateFinish[id] = lf
			row := rows[StageRef{ji, id}]
			row.Slack = lf - row.End
			if row.Slack < 1e-9 && row.Slack > -1e-9 {
				row.Slack = 0
			}
		}
		// Walk the path backwards from the stage that ends the job.
		cur, curEnd := dag.StageID(-1), math.Inf(-1)
		for _, id := range g.StagesView() {
			row := rows[StageRef{ji, id}]
			if row.End > curEnd || (row.End == curEnd && (cur < 0 || id < cur)) {
				cur, curEnd = id, row.End
			}
		}
		var path []dag.StageID
		for cur >= 0 {
			path = append(path, cur)
			rows[StageRef{ji, cur}].Critical = true
			parents := g.Stage(cur).Parents
			next, nextEnd := dag.StageID(-1), math.Inf(-1)
			for _, p := range parents {
				row := rows[StageRef{ji, p}]
				if row.End > nextEnd || (row.End == nextEnd && (next < 0 || p < next)) {
					next, nextEnd = p, row.End
				}
			}
			cur = next
		}
		// Reverse to root→final order.
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		length := 0.0
		for _, id := range path {
			row := rows[StageRef{ji, id}]
			length += row.End - row.Ready
		}
		rep.Paths = append(rep.Paths, JobPath{Job: ji, Stages: path, End: jobEnd, Length: length})
	}
}
