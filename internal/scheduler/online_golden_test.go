package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/golden"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// onlineStream is one arrival stream of the online golden.
type onlineStream struct {
	name      string
	cluster   *cluster.Cluster
	fairByJob bool
	jobs      []*workload.Job
	arrivals  []float64
}

// onlinePool is the gallery/paper job pool BenchmarkPlanOnlineLatency
// submits, in name order.
func onlinePool(c *cluster.Cluster) []*workload.Job {
	pool := workload.Gallery(c, 1)
	for name, job := range workload.PaperWorkloads(c, 1) {
		pool[name] = job
	}
	pool["ALS"] = workload.ALS(c, 1)
	names := make([]string, 0, len(pool))
	for name := range pool {
		names = append(names, name)
	}
	sort.Strings(names)
	jobs := make([]*workload.Job, 0, len(names))
	for _, name := range names {
		jobs = append(jobs, pool[name])
	}
	return jobs
}

// onlineGoldenStreams enumerates the golden's arrival streams: the
// latency bench's pool at its 1,500 s spacing and at a 60 s spacing that
// keeps several jobs in flight, a Poisson stream of random DAGs, and a
// slice of a generated trace on a two-machine trace cluster.
func onlineGoldenStreams(t *testing.T) []onlineStream {
	t.Helper()
	c30 := cluster.NewM4LargeCluster(30)
	pool := onlinePool(c30)
	spaced := func(gap float64) []float64 {
		out := make([]float64, len(pool))
		for i := range out {
			out[i] = float64(i) * gap
		}
		return out
	}

	c10 := cluster.NewM4LargeCluster(10)
	rng := rand.New(rand.NewSource(5))
	var poisson []*workload.Job
	var poissonAt []float64
	at := 0.0
	for i := 0; i < 8; i++ {
		poisson = append(poisson, workload.RandomJob("poisson", c10, 4+rng.Intn(6), rng))
		poissonAt = append(poissonAt, at)
		at += float64(rng.ExpFloat64() * 60)
	}

	tr := trace.Generate(trace.GenConfig{Jobs: 12, Span: 3000, Seed: 21, MaxStages: 12})
	slice := cluster.NewTraceCluster(2, 4, rand.New(rand.NewSource(21)))
	var traced []*workload.Job
	var tracedAt []float64
	for i := range tr.Jobs {
		wl, err := tr.Jobs[i].Workload(slice, trace.DefaultSplit, nil)
		if err != nil {
			t.Fatalf("trace job %d: %v", i, err)
		}
		traced = append(traced, wl)
		tracedAt = append(tracedAt, tr.Jobs[i].Arrival)
	}

	return []onlineStream{
		{"pool-1500", c30, true, pool, spaced(1500)},
		{"pool-60", c30, true, pool, spaced(60)},
		{"poisson", c10, false, poisson, poissonAt},
		{"trace", slice, true, traced, tracedAt},
	}
}

// onlineGoldenModes are the planner modes every stream is planned under.
var onlineGoldenModes = []struct {
	name string
	set  func(*OnlineOptions)
}{
	{"default", func(*OnlineOptions) {}},
	{"noprune", func(o *OnlineOptions) { o.DisableBoundPrune = true }},
	{"approx", func(o *OnlineOptions) { o.Approximate = true }},
}

// onlineAddLine renders one Add's decision: the committed delays, the
// incumbent and chosen objective values as float bits, the never-worse
// fallback (nil delays while K is non-empty, the chosen value then the
// incumbent's) and every planning-work counter.
func onlineAddLine(run sim.JobRun, sched *core.Schedule) string {
	var b strings.Builder
	ids := make([]dag.StageID, 0, len(run.Delays))
	for id := range run.Delays {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fallback := run.Delays == nil && len(sched.K) > 0
	chosen := sched.Makespan
	if fallback {
		chosen = sched.StockMakespan
	}
	fmt.Fprintf(&b, "inc=%016x chosen=%016x fallback=%t", math.Float64bits(sched.StockMakespan),
		math.Float64bits(chosen), fallback)
	for _, id := range ids {
		fmt.Fprintf(&b, " %d:%016x", id, math.Float64bits(run.Delays[id]))
	}
	fmt.Fprintf(&b, " evals=%d bounded=%d pruned=%d exact=%d approx=%d hits=%d forked=%d full=%d cut=%d reused=%d",
		sched.Evaluations, sched.Prune.Bounded, sched.Prune.Pruned, sched.Prune.Exact, sched.Prune.Approx,
		sched.CacheHits, sched.ForkedEvals, sched.FullEvals, sched.CutEvals, sched.ReusedScans)
	return b.String()
}

// TestOnlineScheduleGolden pins online planning bit for bit: every Add's
// delays, objective values, fallback and counters over four arrival
// streams and three planner modes must match testdata/ exactly, one
// "stream/mode/index line" entry per Add in plan order. Run with -update
// to regenerate after an intended planner change.
func TestOnlineScheduleGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range onlineGoldenStreams(t) {
		for _, m := range onlineGoldenModes {
			opt := OnlineOptions{Cluster: s.cluster, FairByJob: s.fairByJob, MaxCandidates: 10}
			m.set(&opt)
			p := newPlannerWorld(t, opt)
			for i, job := range s.jobs {
				run, sched, err := p.add(job, s.arrivals[i])
				if err != nil {
					t.Fatalf("%s/%s job %d: %v", s.name, m.name, i, err)
				}
				fmt.Fprintf(&b, "%s/%s/%02d %s\n", s.name, m.name, i, onlineAddLine(run, sched))
			}
		}
	}
	golden.Check(t, "testdata/online_schedules.golden", []byte(b.String()))
}
