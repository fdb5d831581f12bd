package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// restrictJob returns the job induced by the active stage set (nil = the
// job itself): only active stages remain and parent edges to inactive
// stages are dropped. It is the reference semantics of a masked run
// (sim.JobRun.Active), which the what-if evaluator uses instead of
// building the sub-job.
func restrictJob(job *workload.Job, active map[dag.StageID]bool) (*workload.Job, error) {
	if active == nil {
		return job, nil
	}
	g := dag.New()
	profiles := make(map[dag.StageID]workload.StageProfile)
	for _, id := range job.Graph.StagesView() {
		if !active[id] {
			continue
		}
		s := job.Graph.Stage(id)
		var parents []dag.StageID
		for _, p := range s.Parents {
			if active[p] {
				parents = append(parents, p)
			}
		}
		if err := g.AddStage(dag.Stage{ID: id, Name: s.Name, Parents: parents}); err != nil {
			return nil, err
		}
		profiles[id] = job.Profiles[id]
	}
	sub := &workload.Job{Name: job.Name, Graph: g, Profiles: profiles}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return sub, nil
}

// TestRestrictJob checks the oracle itself: only active stages remain,
// edges between active stages are kept, and nil keeps the job.
func TestRestrictJob(t *testing.T) {
	c := c30()
	j := workload.LDA(c, 0.2)
	active := map[dag.StageID]bool{2: true, 3: true}
	sub, err := restrictJob(j, active)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Graph.Len() != 2 {
		t.Fatalf("restricted graph has %d stages, want 2", sub.Graph.Len())
	}
	if sub.Graph.Stage(1) != nil {
		t.Fatal("stage 1 must be excluded")
	}
	// Stage 3's parent 2 is active and must be kept.
	if got := sub.Graph.Parents(3); len(got) != 1 || got[0] != 2 {
		t.Fatalf("stage 3 parents = %v, want [2]", got)
	}
	// nil active = identity.
	same, err := restrictJob(j, nil)
	if err != nil || same != j {
		t.Fatal("nil active must return the job unchanged")
	}
}

func TestRestrictJobDropsCrossEdges(t *testing.T) {
	c := c30()
	j := workload.CosineSimilarity(c, 0.2) // S5 ← {S2, S4}
	active := map[dag.StageID]bool{2: true, 5: true}
	sub, err := restrictJob(j, active)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Graph.Parents(5); len(got) != 1 || got[0] != 2 {
		t.Fatalf("stage 5 parents = %v, want [2] (4 inactive)", got)
	}
}

// reversedJob re-inserts a job's stages in reverse order, so children
// come before their parents in position order.
func reversedJob(job *workload.Job) *workload.Job {
	ids := slices.Clone(job.Graph.StagesView())
	slices.Reverse(ids)
	g := dag.New()
	for _, id := range ids {
		g.MustAdd(*job.Graph.Stage(id))
	}
	r := &workload.Job{Name: job.Name + "-rev", Graph: g, Profiles: job.Profiles}
	if err := r.Validate(); err != nil {
		panic(err)
	}
	return r
}

// maskCase is one masked run: the job, its active mask by position and
// the delays (some of inactive stages, some zero).
type maskCase struct {
	job    *workload.Job
	mask   []bool
	delays map[dag.StageID]float64
}

// checkMaskedRun asserts that the masked run matches the restricted
// sub-job's run bit for bit, alone and arriving at t = 40 into a world
// that already runs a committed job: the Result of a run and of a fork of
// the unstepped masked world that carries every delay as a DelayUpdate,
// and the DrainJCTSum of both. A non-nil placement places both runs.
func checkMaskedRun(t *testing.T, opt sim.Options, mc maskCase, committed *workload.Job, placement map[dag.StageID]int) {
	t.Helper()
	active := map[dag.StageID]bool{}
	for p, id := range mc.job.Graph.StagesView() {
		active[id] = mc.mask[p]
	}
	sub, err := restrictJob(mc.job, active)
	if err != nil {
		t.Fatal(err)
	}
	var ups []sim.DelayUpdate
	for p, id := range mc.job.Graph.StagesView() {
		if d := mc.delays[id]; d != 0 && mc.mask[p] {
			ups = append(ups, sim.DelayUpdate{Stage: id, Delay: d})
		}
	}
	for _, withWorld := range []bool{false, true} {
		var world []sim.JobRun
		at := 0.0
		if withWorld {
			world, at = []sim.JobRun{{Job: committed}}, 40
		}
		ji := len(world)
		for i := range ups {
			ups[i].Job = ji
		}
		ref, err := sim.Run(opt, append(slices.Clone(world), sim.JobRun{Job: sub, Arrival: at, Delays: mc.delays, Placement: placement}))
		if err != nil {
			t.Fatal(err)
		}
		refSum := 0.0
		for i := range ref.JobEnd {
			refSum += ref.JCT(i)
		}
		run := sim.JobRun{Job: mc.job, Arrival: at, Active: mc.mask, Placement: placement}
		delayed := run
		delayed.Delays = mc.delays
		got, err := sim.Run(opt, append(slices.Clone(world), delayed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("world=%v mask %v: masked Result differs from the restricted job's", withWorld, mc.mask)
		}
		// The prepared world: the masked job, undelayed, arriving into the
		// world (injected at its horizon when there is one), unstepped.
		var prepared *sim.Stepper
		if !withWorld {
			prepared, err = sim.NewStepper(opt, []sim.JobRun{run})
		} else if prepared, err = sim.NewStepper(opt, world); err == nil {
			if err = prepared.AdvanceBefore(at); err == nil {
				err = prepared.Inject(run)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		fork := func() *sim.Stepper {
			fk, err := prepared.Fork(ups)
			if err != nil {
				t.Fatal(err)
			}
			return fk
		}
		fk := fork()
		for fk.HasPendingEvents() {
			if err := fk.StepNextEvent(); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := fk.Result(); err != nil || !reflect.DeepEqual(res, ref) {
			t.Fatalf("world=%v mask %v: fork of the prepared world differs from the restricted job's run (%v)", withWorld, mc.mask, err)
		}
		if sum, _, err := fork().DrainJCTSum(math.Inf(1)); err != nil || math.Float64bits(sum) != math.Float64bits(refSum) {
			t.Fatalf("world=%v mask %v: fork's DrainJCTSum %v (%v), restricted run's Σ JCT %v", withWorld, mc.mask, sum, err, refSum)
		}
		prepared.Close()
	}
}

// maskCases draws the masks of one job: empty, full, one with a stage
// whose parents are all inactive, and random ones, each with random
// delays on every stage (inactive ones included) and some zeros.
func maskCases(job *workload.Job, rng *rand.Rand) []maskCase {
	n := job.Graph.Len()
	full := make([]bool, n)
	for i := range full {
		full[i] = true
	}
	masks := [][]bool{make([]bool, n), full}
	for p := range n {
		if pp := job.Graph.ParentPos(p); len(pp) > 0 {
			m := slices.Clone(full)
			for _, q := range pp {
				m[q] = false
			}
			masks = append(masks, m)
			break
		}
	}
	for range 3 {
		m := make([]bool, n)
		for i := range m {
			m[i] = rng.Intn(3) > 0
		}
		masks = append(masks, m)
	}
	var out []maskCase
	for _, m := range masks {
		d := map[dag.StageID]float64{}
		for _, id := range job.Graph.StagesView() {
			if rng.Intn(3) > 0 {
				d[id] = float64(rng.Intn(4)) * rng.Float64() * 60
			}
		}
		out = append(out, maskCase{job: job, mask: m, delays: d})
	}
	return out
}

// randomPlacement puts every stage of the job on one of n nodes at
// random.
func randomPlacement(job *workload.Job, n int, rng *rand.Rand) map[dag.StageID]int {
	p := map[dag.StageID]int{}
	for _, id := range job.Graph.StagesView() {
		p[id] = rng.Intn(n)
	}
	return p
}

// placedOptions is a 3-node cluster joined by links of unequal
// bandwidth, for placed runs.
func placedOptions() sim.Options {
	bw := cluster.Mbps(290)
	return sim.Options{Cluster: cluster.NewM4LargeCluster(3), TrackNode: -1,
		Links: [][]float64{{0, bw / 3, bw / 5}, {bw / 4, 0, bw / 2}, {bw / 6, bw / 3, 0}}}
}

// TestMaskedRunMatchesRestrictedJob: a masked run is the restricted
// sub-job, bit for bit — on gallery and paper jobs, random DAGs and a DAG
// whose children precede their parents in position order, on the coarse
// planner cluster, on a tracked multi-node one, under faults and placed
// at random on a linked one — and so is a fork of the unstepped masked
// world that revises every delay.
func TestMaskedRunMatchesRestrictedJob(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	rng := rand.New(rand.NewSource(11))
	named := workload.Gallery(c, 0.2)
	for name, j := range workload.PaperWorkloads(c, 0.2) {
		named[name] = j
	}
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	var jobs []*workload.Job
	for _, n := range names {
		jobs = append(jobs, named[n])
	}
	for i := range 4 {
		jobs = append(jobs, workload.RandomJob("mask", c, 5+4*i, rng))
	}
	jobs = append(jobs, reversedJob(workload.RandomJob("mask", c, 9, rng)))
	committed := workload.RandomJob("committed", c, 6, rng)
	// The fault plan crashes a node mid-run, so lineage recovery must not
	// count a completed stage's inactive children as waiting for it.
	inj, err := faults.NewInjector(faults.FaultPlan{
		Seed: 7, TaskFailureProb: 0.05, StragglerFrac: 0.25, StragglerFactor: 3,
		Crashes: []faults.NodeCrash{{Node: 2, At: 30}, {Node: 1, At: 120}, {Node: 3, At: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := []sim.Options{
		{Cluster: sim.Coarsen(c), TrackNode: -1},
		{Cluster: c, TrackNode: 1, TrackCluster: true, TrackOccupancy: true, FairByJob: true},
		{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 8, Speculation: true, BlacklistAfter: 3},
		placedOptions(),
	}
	// Placements draw from their own source, so the other cases' draws
	// stay as they were.
	prng := rand.New(rand.NewSource(13))
	for _, job := range jobs {
		for _, mc := range maskCases(job, rng) {
			for _, opt := range opts {
				var place map[dag.StageID]int
				if opt.Links != nil {
					place = randomPlacement(job, len(opt.Cluster.Nodes), prng)
				}
				checkMaskedRun(t, opt, mc, committed, place)
			}
		}
	}
}

// FuzzMaskedRun hunts for a DAG, mask and delay vector on which a masked
// run (or a fork of the unstepped masked world) departs from the
// restricted sub-job's run; with placed set, both runs are placed at
// random on a linked 3-node cluster.
func FuzzMaskedRun(f *testing.F) {
	f.Add(int64(1), uint8(6), uint64(0b101101), false, false)
	f.Add(int64(2), uint8(12), uint64(0), true, false)
	f.Add(int64(3), uint8(9), ^uint64(0), false, false)
	f.Add(int64(4), uint8(10), uint64(0b110110), false, true)
	f.Add(int64(5), uint8(14), ^uint64(0), true, true)
	c := cluster.NewM4LargeCluster(3)
	opt := sim.Options{Cluster: sim.Coarsen(c), TrackNode: -1}
	f.Fuzz(func(t *testing.T, seed int64, stages uint8, bits uint64, reverse, placed bool) {
		rng := rand.New(rand.NewSource(seed))
		job := workload.RandomJob("fuzz", c, 1+int(stages%24), rng)
		if reverse {
			job = reversedJob(job)
		}
		mc := maskCase{job: job, mask: make([]bool, job.Graph.Len()), delays: map[dag.StageID]float64{}}
		for p, id := range job.Graph.StagesView() {
			mc.mask[p] = bits&(1<<(uint(p)%64)) != 0
			if rng.Intn(2) == 0 {
				mc.delays[id] = rng.Float64() * 90
			}
		}
		committed := workload.RandomJob("committed", c, 4, rng)
		if placed {
			popt := placedOptions()
			checkMaskedRun(t, popt, mc, committed, randomPlacement(job, len(popt.Cluster.Nodes), rng))
			return
		}
		checkMaskedRun(t, opt, mc, committed, nil)
	})
}

func TestSimEvaluatorMatchesDirectSim(t *testing.T) {
	c := c30()
	j := workload.LDA(c, 0.2)
	ev, err := newSimEvaluator(Options{Cluster: c}, j, Arrival{}, new(PlanStats))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Makespan(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Direct coarse sim of the full job: job end must coincide.
	res, err := sim.Run(sim.Options{Cluster: sim.Coarsen(c), TrackNode: -1}, []sim.JobRun{{Job: j}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-res.JCT(0)) > 1e-6 {
		t.Fatalf("evaluator %.3f != sim %.3f", got, res.JCT(0))
	}
}

// The never-worse guard: whatever the search does, the returned schedule
// never predicts worse than stock, and the simulated JCT with the sim
// evaluator (which matches the measurement cluster when coarse == fine)
// never regresses.
func TestNeverWorseGuardOnRandomJobs(t *testing.T) {
	c := sim.Coarsen(cluster.NewM4LargeCluster(4))
	for seed := int64(0); seed < 12; seed++ {
		job := workload.RandomJob("nw", c, 9, randFrom(seed))
		s, err := Compute(Options{Cluster: c, MaxCandidates: 8}, job)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan > s.StockMakespan+1e-6 {
			t.Fatalf("seed %d: makespan %.1f > stock %.1f", seed, s.Makespan, s.StockMakespan)
		}
		stock, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: job}})
		if err != nil {
			t.Fatal(err)
		}
		delayed, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: job, Delays: s.Delays}})
		if err != nil {
			t.Fatal(err)
		}
		if delayed.JCT(0) > stock.JCT(0)*1.001 {
			t.Fatalf("seed %d: delays regressed the real JCT %.1f > %.1f", seed, delayed.JCT(0), stock.JCT(0))
		}
	}
}

// TestPreparedWorldsAnswerOnly: the sim evaluator's prepared worlds — the
// whole job and a masked active set, alone and arriving into a committed
// world — and their forks are answer-only (no Result; a drain gives the
// evaluator's answer), while the committed world they fork stays a full
// world.
func TestPreparedWorldsAnswerOnly(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	job := workload.LDA(c, 0.3)
	mask := make([]bool, job.Graph.Len())
	for p := range mask {
		mask[p] = p%2 == 0
	}
	committed, err := sim.NewStepper(sim.Options{Cluster: sim.Coarsen(c), TrackNode: -1}, []sim.JobRun{{Job: workload.ALS(c, 0.3)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := committed.AdvanceBefore(40); err != nil {
		t.Fatal(err)
	}
	for _, a := range []Arrival{{}, {World: committed, At: 40}} {
		ev, err := newSimEvaluator(Options{Cluster: c}, job, a, new(PlanStats))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range [][]bool{nil, mask} {
			if err := ev.SetActive(m); err != nil {
				t.Fatal(err)
			}
			want, err := ev.Makespan(nil)
			if err != nil {
				t.Fatal(err)
			}
			fk, err := ev.world.Fork(nil)
			if err != nil {
				t.Fatal(err)
			}
			for fk.HasPendingEvents() {
				if err := fk.StepNextEvent(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := fk.Result(); err == nil {
				t.Errorf("world=%v mask=%v: a fork of the prepared world has a Result", a.World != nil, m != nil)
			}
			if got, _, err := fk.DrainJCTSum(math.Inf(1)); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("world=%v mask=%v: drained fork %v (%v), the evaluator's answer %v", a.World != nil, m != nil, got, err, want)
			}
		}
		ev.Close()
	}
	for committed.HasPendingEvents() {
		if err := committed.StepNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := committed.Result(); err != nil {
		t.Errorf("the committed world lost its Result: %v", err)
	}
}
