// Package replay is the Sec. 5.3 trace replay behind Fig. 14 and Table 4:
// every trace job runs on its own even slice of the cluster under Fuxi
// and under the three DelayStage path orders. cmd/replay runs it on a
// trace file, experiments.Fig14 on a generated trace.
//
// Each job is one independent internal/shardsim world, built on the
// worker that takes it: the job's Workload is materialized, planned by
// Alg. 1 (unless the variant is plain Fuxi) and simulated, so only the
// in-flight worlds hold engine state even on the full 2.7M-job trace.
// Results come back in job order and fold into the variant's Progress, so
// every sum is bit-identical at any shard count. A checkpointed replay
// appends each fold to a progress Log (log.go) and resumes by re-folding
// it.
package replay

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"delaystage/internal/cli"
	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
	"delaystage/internal/shardsim"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// Variant is one strategy every trace job is replayed under; Key is its
// -variants name.
type Variant struct {
	Name, Key string
	Order     core.Order
	Plain     bool
}

// Variants is the Fig. 14 / Table 4 lineup, in table order.
var Variants = []Variant{
	{Name: "Fuxi", Key: "fuxi", Plain: true},
	{Name: "random DelayStage", Key: "random", Order: core.Random},
	{Name: "default DelayStage", Key: "default", Order: core.Descending},
	{Name: "ascending DelayStage", Key: "ascending", Order: core.Ascending},
}

// SelectVariants returns the subset of Variants whose keys the
// comma-separated list names, in Variants order; "" selects them all.
func SelectVariants(list string) ([]Variant, error) {
	if list == "" {
		return Variants, nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(list, ",") {
		k = strings.TrimSpace(strings.ToLower(k))
		if k != "fuxi" && k != "random" && k != "default" && k != "ascending" {
			return nil, fmt.Errorf("unknown variant %q (want fuxi, random, default or ascending)", k)
		}
		want[k] = true
	}
	var sel []Variant
	for _, v := range Variants {
		if want[v.Key] {
			sel = append(sel, v)
		}
	}
	return sel, nil
}

// Config is what differs between the replays that share this pipeline.
type Config struct {
	// MaxCandidates caps Alg. 1's candidates per path: [0] for jobs of at
	// most 60 stages, [1] for larger ones.
	MaxCandidates [2]int
	// Approximate plans from the analytic model instead of what-if
	// simulation.
	Approximate bool
	// Faults injects failures into every job's world, the plan re-seeded
	// by job index. The plan must be validated; the zero value injects
	// nothing.
	Faults cli.Faults
	// Shards and Ctx shape each variant's shardsim run.
	Shards int
	Ctx    context.Context
}

// Replay is one trace replayed on per-job cluster slices.
type Replay struct {
	cfg    Config
	jobs   []trace.Job
	slices []*cluster.Cluster
	seed   int64
}

// New gives each job its own slice of machines trace machines, with the
// bandwidths drawn in job order from seed; seed+i also seeds job i's
// planner.
func New(cfg Config, jobs []trace.Job, machines int, seed int64) *Replay {
	rng := rand.New(rand.NewSource(seed))
	slices := make([]*cluster.Cluster, len(jobs))
	for i := range slices {
		slices[i] = sim.Coarsen(cluster.NewTraceCluster(machines, 4, rng))
	}
	return &Replay{cfg: cfg, jobs: jobs, slices: slices, seed: seed}
}

// Jobs is the number of jobs replayed under each variant.
func (r *Replay) Jobs() int { return len(r.jobs) }

// Plan materializes job i's workload on its slice and, unless v is plain,
// runs Alg. 1 for it. It is a pure function of (v, i), so any worker
// goroutine may call it.
func (r *Replay) Plan(v Variant, i int) (*workload.Job, *core.Schedule, error) {
	wl, err := r.jobs[i].Workload(r.slices[i], trace.DefaultSplit, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("job %s: %w", r.jobs[i].Name, err)
	}
	if v.Plain {
		return wl, nil, nil
	}
	mc := r.cfg.MaxCandidates[0]
	if wl.Graph.Len() > 60 {
		mc = r.cfg.MaxCandidates[1]
	}
	sched, err := core.Compute(core.Options{
		Cluster: r.slices[i], Order: v.Order, Seed: r.seed + int64(i),
		MaxCandidates: mc, Approximate: r.cfg.Approximate,
	}, wl)
	return wl, sched, err
}

// Run replays jobs p.Done, p.Done+1, … under v through shardsim and folds
// each into p. Job i's world is its planned delays plus its own fault
// injector on its slice; observer, when non-nil, gives it its sim
// observer. After each fold Run calls then with the job's index, result
// and schedule (nil when v is plain), serially and in job order.
func (r *Replay) Run(v Variant, p *Progress, observer func(i int) sim.Observer,
	then func(i int, res *sim.Result, sched *core.Schedule) error) error {
	// A schedule is held only while its world is in flight, from build to
	// reduce, so a replay's state never grows with the trace.
	var inFlight sync.Map
	f := &fold{p: p, start: p.Done}
	build := func(k int) (shardsim.World, error) {
		i := f.start + k
		wl, sched, err := r.Plan(v, i)
		if err != nil {
			return shardsim.World{}, err
		}
		var delays map[dag.StageID]float64
		if sched != nil {
			delays = sched.Delays
			inFlight.Store(i, sched)
		}
		fc := r.cfg.Faults
		opt := sim.Options{Cluster: r.slices[i], TrackNode: -1, MaxAttempts: fc.MaxAttempts,
			Speculation: fc.Speculation, BlacklistAfter: fc.BlacklistAfter}
		if !fc.Plan.Zero() {
			plan := fc.Plan
			plan.Seed += int64(i)
			if opt.Faults, err = faults.NewInjector(plan); err != nil {
				return shardsim.World{}, err
			}
		}
		if observer != nil {
			opt.Observer = observer(i)
		}
		return shardsim.World{Opt: opt, Runs: []sim.JobRun{{Job: wl, Delays: delays}}}, nil
	}
	f.then = func(i int, res *sim.Result) error {
		sched, _ := inFlight.LoadAndDelete(i)
		s, _ := sched.(*core.Schedule)
		return then(i, res, s)
	}
	return shardsim.Run(shardsim.Config{Shards: r.cfg.Shards, Ctx: r.cfg.Ctx}, len(r.jobs)-f.start, build, f.reduce)
}

// Progress is a variant's resumable replay state: everything its summary
// derives from, with JCTs kept bit-exact.
type Progress struct {
	Done int // jobs fully replayed under this variant
	JCTs []float64
	// CPUInt and NetInt integrate the jobs' average utilizations over
	// their JCTs, TimeInt the JCTs themselves.
	CPUInt, NetInt, TimeInt float64
	// Failed counts the jobs that exhausted their retry budget (only
	// possible with fault injection on).
	Failed int
}

// fold is a variant's shardsim reduce. shardsim calls it serially in job
// order, so p always equals a sequential replay's state after its first
// p.Done jobs — the floating-point sums are bit-identical at any shard
// count, and a progress Log appended after each fold holds such a prefix.
type fold struct {
	p     *Progress
	start int                                // job index of world 0: the jobs a resumed run skips
	then  func(i int, res *sim.Result) error // when non-nil, called after each fold
}

// reduce folds world k's result.
func (f *fold) reduce(k int, res *sim.Result) error {
	f.p.add(recordOf(res))
	if f.then == nil {
		return nil
	}
	return f.then(f.start+k, res)
}

// add folds one job's record. A job that exhausted its retry budget under
// fault injection is a data point of the variant, not a replay error; it
// contributes no JCT.
func (p *Progress) add(r record) {
	if r.failed {
		p.Failed++
	} else {
		p.JCTs = append(p.JCTs, r.jct)
		p.CPUInt += float64(r.cpu * r.jct)
		p.NetInt += float64(r.net * r.jct)
		p.TimeInt += r.jct
	}
	p.Done++
}
