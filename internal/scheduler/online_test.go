package scheduler

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/metrics"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// plannerWorld drives an OnlinePlanner the way its callers do: it owns
// the committed world Add forks and grows it as runs commit, as
// PlanOnline grows its own (NewStepper for the first run, then
// AdvanceBefore + Inject). An approximate planner gets no world.
type plannerWorld struct {
	*OnlinePlanner
	world *sim.Stepper
}

func newPlannerWorld(t testing.TB, opt OnlineOptions) *plannerWorld {
	t.Helper()
	p, err := NewOnlinePlanner(opt)
	if err != nil {
		t.Fatal(err)
	}
	return &plannerWorld{OnlinePlanner: p}
}

// add plans job on the world paused just before arrival, then joins the
// committed run to the world.
func (w *plannerWorld) add(job *workload.Job, arrival float64) (sim.JobRun, *core.Schedule, error) {
	if w.world != nil {
		if err := w.world.AdvanceBefore(arrival); err != nil {
			return sim.JobRun{}, nil, err
		}
	}
	run, sched, err := w.Add(job, arrival, w.world)
	if err != nil {
		return sim.JobRun{}, nil, err
	}
	return run, sched, w.join(run)
}

// commit commits an externally planned run and joins it to the world.
func (w *plannerWorld) commit(job *workload.Job, arrival float64, delays map[dag.StageID]float64) (sim.JobRun, error) {
	run, err := w.Commit(job, arrival, delays)
	if err != nil {
		return sim.JobRun{}, err
	}
	return run, w.join(run)
}

// join puts a committed run into the world: the first run starts it, a
// later one joins it at its arrival.
func (w *plannerWorld) join(run sim.JobRun) error {
	if w.opt.Approximate {
		return nil
	}
	if w.world == nil {
		var err error
		w.world, err = sim.NewStepper(sim.Options{Cluster: w.coarse, TrackNode: -1, FairByJob: w.opt.FairByJob}, []sim.JobRun{run})
		return err
	}
	if err := w.world.AdvanceBefore(run.Arrival); err != nil {
		return err
	}
	return w.world.Inject(run)
}

func TestPlanOnlineValidation(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	j := workload.LDA(c, 0.1)
	if _, err := PlanOnline(OnlineOptions{}, []*workload.Job{j}, []float64{0}); err == nil {
		t.Error("nil cluster must error")
	}
	if _, err := PlanOnline(OnlineOptions{Cluster: c}, []*workload.Job{j}, nil); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := PlanOnline(OnlineOptions{Cluster: c}, []*workload.Job{j, j}, []float64{10, 5}); err == nil {
		t.Error("decreasing arrivals must error")
	}
}

func TestPlanOnlineSingleJobMatchesOffline(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	j := workload.CosineSimilarity(c, 0.15)
	runs, err := PlanOnline(OnlineOptions{Cluster: c}, []*workload.Job{j}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	// With one job, the online objective degenerates to that job's JCT:
	// the plan must improve over stock.
	stock, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, []sim.JobRun{{Job: j}})
	if err != nil {
		t.Fatal(err)
	}
	planned, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1}, runs)
	if err != nil {
		t.Fatal(err)
	}
	if planned.JCT(0) > stock.JCT(0)*1.001 {
		t.Fatalf("online plan regressed the single job: %.1f vs %.1f", planned.JCT(0), stock.JCT(0))
	}
}

// The headline: with overlapping jobs on a shared cluster, online
// multi-job planning must beat submit-when-ready on mean JCT, and must
// never do worse.
func TestOnlineMultiJobBeatsNaive(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	rng := rand.New(rand.NewSource(4))
	var jobs []*workload.Job
	var arrivals []float64
	at := 0.0
	for i := 0; i < 5; i++ {
		jobs = append(jobs, workload.RandomJob("on", c, 6+rng.Intn(5), rng))
		arrivals = append(arrivals, at)
		at += 40 + float64(rng.Float64()*80) // overlapping arrivals
	}
	naiveRuns := make([]sim.JobRun, len(jobs))
	for i := range jobs {
		naiveRuns[i] = sim.JobRun{Job: jobs[i], Arrival: arrivals[i]}
	}
	naive, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, FairByJob: true}, naiveRuns)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := PlanOnline(OnlineOptions{Cluster: c, FairByJob: true, MaxCandidates: 10}, jobs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	online, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, FairByJob: true}, runs)
	if err != nil {
		t.Fatal(err)
	}
	var nj, oj []float64
	for i := range jobs {
		nj = append(nj, naive.JCT(i))
		oj = append(oj, online.JCT(i))
	}
	nMean, oMean := metrics.Mean(nj), metrics.Mean(oj)
	t.Logf("mean JCT: naive %.1f → online %.1f (−%.1f%%)", nMean, oMean, 100*(nMean-oMean)/nMean)
	if oMean > nMean*1.005 {
		t.Fatalf("online planning regressed mean JCT: %.1f vs %.1f", oMean, nMean)
	}
	if oMean >= nMean {
		t.Skipf("no improvement on this seed (%.1f vs %.1f); never-worse held", oMean, nMean)
	}
}

func TestOnlineSequentialJobsNoDelays(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	// Chain jobs have no parallel stages: plans must be delay-free.
	g := workload.RandomJob("chain", c, 1, rand.New(rand.NewSource(1)))
	runs, err := PlanOnline(OnlineOptions{Cluster: c}, []*workload.Job{g, g}, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if len(r.Delays) != 0 {
			t.Fatalf("run %d has delays %v for a single-stage job", i, r.Delays)
		}
	}
}

// Regression: `arrivals[i] < arrivals[i-1]` is false when either side is
// NaN, so a NaN arrival used to slip past the monotonicity check and
// poison every JCT sum. The planner must reject non-finite and negative
// arrivals with a typed *InvalidArrivalError.
func TestPlanOnlineArrivalEdgeCases(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	j := workload.LDA(c, 0.1)
	cases := []struct {
		name     string
		arrivals []float64
		wantBad  int // index reported by the typed error (-1: plain error)
	}{
		{"nan first", []float64{math.NaN()}, 0},
		{"nan after valid", []float64{0, 5, math.NaN()}, 2},
		{"nan between valid", []float64{0, math.NaN(), 10}, 1},
		{"+inf", []float64{0, math.Inf(1)}, 1},
		{"-inf", []float64{math.Inf(-1), 0}, 0},
		{"negative", []float64{-1, 0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := make([]*workload.Job, len(tc.arrivals))
			for i := range jobs {
				jobs[i] = j
			}
			_, err := PlanOnline(OnlineOptions{Cluster: c}, jobs, tc.arrivals)
			if err == nil {
				t.Fatalf("arrivals %v accepted", tc.arrivals)
			}
			var ae *InvalidArrivalError
			if !errors.As(err, &ae) {
				t.Fatalf("got %T (%v), want *InvalidArrivalError", err, err)
			}
			if ae.Index != tc.wantBad {
				t.Errorf("error blames arrival %d, want %d (%v)", ae.Index, tc.wantBad, err)
			}
		})
	}
}

// Table-driven sweep of the degenerate inputs PlanOnline must handle
// without planning anything.
func TestPlanOnlineDegenerateInputs(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	chain := workload.RandomJob("chain", c, 1, rand.New(rand.NewSource(1)))
	cases := []struct {
		name     string
		jobs     []*workload.Job
		arrivals []float64
		wantErr  bool
		wantRuns int
	}{
		{"zero jobs", nil, nil, false, 0},
		{"single chain job", []*workload.Job{chain}, []float64{0}, false, 1},
		{"nil job", []*workload.Job{nil}, []float64{0}, true, 0},
		{"length mismatch", []*workload.Job{chain}, []float64{0, 1}, true, 0},
		{"decreasing arrivals", []*workload.Job{chain, chain}, []float64{10, 5}, true, 0},
		{"equal arrivals ok", []*workload.Job{chain, chain}, []float64{7, 7}, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs, err := PlanOnline(OnlineOptions{Cluster: c}, tc.jobs, tc.arrivals)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got none")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != tc.wantRuns {
				t.Fatalf("got %d runs, want %d", len(runs), tc.wantRuns)
			}
			for i, r := range runs {
				// Single-stage DAGs have no parallel stages to delay.
				if len(r.Delays) != 0 {
					t.Errorf("run %d has delays %v", i, r.Delays)
				}
			}
		})
	}
}

// Regression for the unreachable "never worse" guard: best starts at
// stockTotal and only ever decreases, so the old `best > stockTotal`
// check could never fire and a no-win sweep committed an empty non-nil
// map instead of the nil that marks submit-when-ready. MaxCandidates=1
// forces a no-win sweep (the only candidate per stage is delay 0).
func TestPlanOnlineNoWinSweepCommitsNilDelays(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	j := workload.CosineSimilarity(c, 0.15) // has parallel stages
	runs, err := PlanOnline(OnlineOptions{Cluster: c, MaxCandidates: 1},
		[]*workload.Job{j}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Delays != nil {
		t.Fatalf("no-win sweep committed %#v, want nil delays", runs[0].Delays)
	}
}

// The incremental planner must reproduce the batch PlanOnline exactly:
// same jobs, same arrivals, same delay vectors byte for byte.
func TestOnlinePlannerMatchesBatch(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	rng := rand.New(rand.NewSource(9))
	var jobs []*workload.Job
	var arrivals []float64
	at := 0.0
	for i := 0; i < 3; i++ {
		jobs = append(jobs, workload.RandomJob("inc", c, 5+rng.Intn(4), rng))
		arrivals = append(arrivals, at)
		at += 50
	}
	opt := OnlineOptions{Cluster: c, MaxCandidates: 8}
	batch, err := PlanOnline(opt, jobs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlannerWorld(t, opt)
	for i := range jobs {
		if _, _, err := p.add(jobs[i], arrivals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(batch, p.Committed()) {
		t.Fatalf("incremental plan diverged from batch:\n%v\nvs\n%v", p.Committed(), batch)
	}
}

// Reset drops committed runs but keeps the arrival watermark: a new
// busy-period epoch cannot rewind time.
func TestOnlinePlannerResetKeepsWatermark(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	chain := workload.RandomJob("chain", c, 1, rand.New(rand.NewSource(2)))
	p, err := NewOnlinePlanner(OnlineOptions{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Add(chain, 100, nil); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if len(p.Committed()) != 0 {
		t.Fatal("Reset left committed runs")
	}
	if _, _, err := p.Add(chain, 50, nil); err == nil {
		t.Fatal("arrival before the watermark accepted after Reset")
	}
	if _, err := p.Commit(chain, 120, nil); err != nil {
		t.Fatal(err)
	}
	if p.last != 120 {
		t.Fatalf("watermark %v, want 120", p.last)
	}
}

// Add's schedule must describe the decision Add just made: the
// search-space sizing, the incumbent-vs-chosen objective values, and
// whether the never-worse fallback fired (nil delays while K is
// non-empty) — the fields the scheduling service attaches to a job's
// plan span.
func TestOnlinePlannerAddSchedule(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	j := workload.CosineSimilarity(c, 0.15)

	p := newPlannerWorld(t, OnlineOptions{Cluster: c})
	run, sched, err := p.add(j, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.K) == 0 || len(sched.Paths) == 0 {
		t.Fatalf("search space not recorded: %+v", sched)
	}
	if sched.Evaluations < 2 {
		t.Fatalf("sweep ran but Evaluations = %d", sched.Evaluations)
	}
	if sched.StockMakespan <= 0 || sched.Makespan <= 0 || sched.Makespan > sched.StockMakespan {
		t.Fatalf("objective values inconsistent: %+v", sched)
	}
	if run.Delays != nil && !(sched.Makespan < sched.StockMakespan-sim.ScanTolerance) {
		t.Fatalf("delays %v committed without beating stock: %+v", run.Delays, sched)
	}

	// MaxCandidates=1 forces a no-win sweep: the fallback fires, so the
	// run carries nil delays although K is non-empty.
	p = newPlannerWorld(t, OnlineOptions{Cluster: c, MaxCandidates: 1})
	run, sched, err = p.add(j, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Delays != nil || len(sched.K) == 0 {
		t.Fatalf("no-win decision: delays %v, K %v", run.Delays, sched.K)
	}

	// A single-stage chain has no delay-eligible stage: the sweep never
	// runs and the schedule says so.
	chain := workload.RandomJob("chain", c, 1, rand.New(rand.NewSource(2)))
	p = newPlannerWorld(t, OnlineOptions{Cluster: c})
	run, sched, err = p.add(chain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.K) != 0 || sched.Evaluations != 0 || len(sched.Paths) != 0 || run.Delays != nil {
		t.Fatalf("trivial-DAG schedule should be empty: %+v, delays %v", sched, run.Delays)
	}
}

// onlineFixture builds a deterministic overlapping-arrival job stream.
func onlineFixture(c *cluster.Cluster, n int, seed int64) ([]*workload.Job, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []*workload.Job
	var arrivals []float64
	at := 0.0
	for i := 0; i < n; i++ {
		jobs = append(jobs, workload.RandomJob("inv", c, 5+rng.Intn(6), rng))
		arrivals = append(arrivals, at)
		at += 30 + float64(rng.Float64()*60)
	}
	return jobs, arrivals
}

// TestOnlinePruneByteIdentical: the analytic pruning tier must not change
// a single planning decision — every committed run's delay vector is
// byte-identical with the tier on and off — while actually eliminating
// candidate simulations.
func TestOnlinePruneByteIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	jobs, arrivals := onlineFixture(c, 6, 11)
	plan := func(disable bool) ([]sim.JobRun, core.PlanStats, error) {
		p := newPlannerWorld(t, OnlineOptions{Cluster: c, FairByJob: true,
			MaxCandidates: 10, DisableBoundPrune: disable})
		var agg core.PlanStats
		for i := range jobs {
			_, sched, err := p.add(jobs[i], arrivals[i])
			if err != nil {
				return nil, core.PlanStats{}, err
			}
			agg.Add(sched.PlanStats)
		}
		return p.Committed(), agg, nil
	}
	pruned, pa, err := plan(false)
	if err != nil {
		t.Fatal(err)
	}
	ref, ra, err := plan(true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !reflect.DeepEqual(pruned[i].Delays, ref[i].Delays) {
			t.Fatalf("job %d: pruned plan %v != reference %v", i, pruned[i].Delays, ref[i].Delays)
		}
	}
	if pa.Prune.Pruned == 0 {
		t.Fatal("pruning tier never fired on the overlapping stream")
	}
	if ra.Prune.Bounded != 0 || ra.Prune.Pruned != 0 {
		t.Fatalf("single-tier run reported bound activity: %+v", ra.Prune)
	}
	if pa.Evaluations >= ra.Evaluations {
		t.Fatalf("pruning saved no evaluations: %d vs %d", pa.Evaluations, ra.Evaluations)
	}
	t.Logf("evaluations %d → %d (pruned %d of %d bounded)",
		ra.Evaluations, pa.Evaluations, pa.Prune.Pruned, pa.Prune.Bounded)
}

// TestOnlineApproximatePlans: approximate mode must plan the stream
// without a single exact evaluation, and the plans must still respect the
// never-worse contract under real simulation.
func TestOnlineApproximatePlans(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	jobs, arrivals := onlineFixture(c, 5, 7)
	p := newPlannerWorld(t, OnlineOptions{Cluster: c, FairByJob: true,
		MaxCandidates: 10, Approximate: true})
	approx := 0
	for i := range jobs {
		_, sched, err := p.add(jobs[i], arrivals[i])
		if err != nil {
			t.Fatal(err)
		}
		if sched.Prune.Exact != 0 {
			t.Fatalf("job %d: approximate mode ran %d exact evaluations", i, sched.Prune.Exact)
		}
		approx += sched.Prune.Approx
	}
	if approx == 0 {
		t.Fatal("approximate mode never scored a candidate")
	}
	runs := p.Committed()
	naive := make([]sim.JobRun, len(runs))
	for i := range runs {
		naive[i] = sim.JobRun{Job: runs[i].Job, Arrival: runs[i].Arrival}
	}
	opt := sim.Options{Cluster: c, TrackNode: -1, FairByJob: true}
	got, err := sim.Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(opt, naive)
	if err != nil {
		t.Fatal(err)
	}
	var gj, rj float64
	for i := range runs {
		gj += got.JCT(i)
		rj += ref.JCT(i)
	}
	// The analytic model has no never-worse simulation guard, so allow a small
	// modeling margin rather than demanding strict improvement.
	if gj > rj*1.10 {
		t.Fatalf("approximate plans regressed total JCT >10%%: %.1f vs naive %.1f", gj, rj)
	}
	t.Logf("total JCT: naive %.1f → approx-planned %.1f (%d analytic evals)", rj, gj, approx)
}

// A failed Add leaves the planner as it found it: the committed runs,
// their lower-bound sum and the arrival watermark.
func TestOnlinePlannerRecoversFromFailedAdd(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	jobs, arrivals := onlineFixture(c, 2, 5)
	// A job whose stock run outlasts the simulator's horizon fails to plan.
	stuck := workload.RandomJob("stuck", c, 6, rand.New(rand.NewSource(3)))
	for id, p := range stuck.Profiles {
		p.ProcRate = 1e-6
		stuck.Profiles[id] = p
	}
	p := newPlannerWorld(t, OnlineOptions{Cluster: c, FairByJob: true, MaxCandidates: 8})
	if _, _, err := p.add(jobs[0], arrivals[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.commit(jobs[1], arrivals[1], nil); err != nil {
		t.Fatal(err)
	}
	committed := slices.Clone(p.Committed())
	lb, last := p.committedBound(), p.last
	if _, sched, err := p.add(stuck, arrivals[1]+100); err == nil || sched != nil {
		t.Fatalf("a job beyond the simulator's horizon was planned (schedule %v, err %v)", sched, err)
	}
	if !reflect.DeepEqual(p.Committed(), committed) || p.committedBound() != lb || p.last != last {
		t.Fatalf("a failed Add changed the planner: %d runs (was %d), Σ lower bounds %v (was %v), watermark %v (was %v)",
			len(p.Committed()), len(committed), p.committedBound(), lb, p.last, last)
	}
}
