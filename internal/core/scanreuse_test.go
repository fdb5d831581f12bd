package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// scanCheck prices one candidate scan of the stage at position k on ev
// against best, as scan does, and holds it to the oracle: every answer
// the scan did not cut equals the fresh run's Σ JCT bit for bit, and the
// scan's argmin — cut answers reading +Inf — is the fresh answers'. It
// returns the winning delay (the incumbent when no candidate wins).
func scanCheck(t *testing.T, wc whatIfCase, ev *simEvaluator, mask []bool, delays []float64, k int, xs []float64, best float64) float64 {
	t.Helper()
	mks := make([]float64, len(xs))
	if n, err := ev.Scan(delays, k, xs, mks, best); err != nil || n != len(xs) {
		t.Fatalf("%s stage %d: Scan answered %d of %d (%v)", wc.name, k, n, len(xs), err)
	}
	want := make([]float64, len(xs))
	for i, x := range xs {
		d := slices.Clone(delays)
		d[k] = x
		want[i] = wc.fresh(t, mask, d)
		if !math.IsInf(mks[i], 1) && math.Float64bits(mks[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s stage %d x=%v: Scan %v, fresh run %v", wc.name, k, x, mks[i], want[i])
		}
	}
	gi, gb := scanArgmin(mks, best)
	wi, wb := scanArgmin(want, best)
	if gi != wi || math.Float64bits(gb) != math.Float64bits(wb) {
		t.Fatalf("%s stage %d: argmin %d at %v from the scan, %d at %v from fresh runs", wc.name, k, gi, gb, wi, wb)
	}
	if gi < 0 {
		return delays[k]
	}
	return xs[gi]
}

// jobPaths returns the job's execution paths by position, as Alg. 1
// decomposes its parallel stages.
func jobPaths(t testing.TB, job *workload.Job) [][]int {
	t.Helper()
	reach, err := dag.NewReachability(job.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int
	for _, p := range dag.ExecutionPaths(job.Graph, reach, func(dag.StageID) float64 { return 1 }) {
		var ps []int
		for _, id := range p.Stages {
			ps = append(ps, job.Graph.Pos(id))
		}
		out = append(out, ps)
	}
	return out
}

// TestScanReuseMatchesFreshSim: consecutive scans that start from the
// previous scan's ready boundary answer what fresh simulations answer,
// bit for bit. Each case scans every execution path's stages back to
// back under one mask — the unrestricted set, then the first two paths'
// stages, as the sweep grows it — twice over, each scan against the base
// of the delays so far and its winner becoming the stage's delay, as
// Alg. 1's sweep and refinement do. The cases are a job alone, a job
// arriving into a two-job world under either fairness, and placed jobs.
// Each case must start a scan from a kept world.
func TestScanReuseMatchesFreshSim(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	coarse := sim.Coarsen(c)
	paper := workload.PaperWorkloads(c, 0.25)
	committed := []sim.JobRun{{Job: workload.ALS(c, 0.25)}, {Job: workload.PageRank(c, 0.2), Arrival: 15}}
	var cases []whatIfCase
	for _, name := range []string{"TriangleCount", "CosineSimilarity"} {
		cases = append(cases, whatIfCase{name: name, opt: Options{Cluster: c}, job: paper[name],
			simOpt: sim.Options{Cluster: coarse, TrackNode: -1}})
		for _, fair := range []bool{false, true} {
			cases = append(cases, whatIfCase{name: name + "/arrival", opt: Options{Cluster: c}, job: paper[name],
				simOpt: sim.Options{Cluster: coarse, TrackNode: -1, FairByJob: fair}, committed: committed, at: 40})
		}
	}
	for _, pc := range placedCases()[:2] {
		cases = append(cases, whatIfCase{name: pc.name, job: pc.job,
			opt:    Options{Cluster: pc.c, Links: pc.links, Placement: pc.placement},
			simOpt: sim.Options{Cluster: pc.c, Links: pc.links, TrackNode: -1}})
	}
	xs := []float64{0, 2.5, 7, 15, 40}
	for _, wc := range cases {
		paths := jobPaths(t, wc.job)
		sweep := make([]bool, wc.job.Graph.Len())
		for _, p := range paths[:min(2, len(paths))] {
			for _, k := range p {
				sweep[k] = true
			}
		}
		reused := 0
		for _, mask := range [][]bool{nil, sweep} {
			a := wc.arrival(t)
			ev, err := newSimEvaluator(wc.opt, wc.job, a, new(PlanStats))
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.SetActive(mask); err != nil {
				t.Fatal(err)
			}
			delays := make([]float64, wc.job.Graph.Len())
			for range 2 {
				for _, p := range paths {
					for _, k := range p {
						if mask != nil && !mask[k] {
							continue
						}
						best, err := ev.Makespan(delays)
						if err != nil {
							t.Fatal(err)
						}
						delays[k] = scanCheck(t, wc, ev, mask, delays, k, xs, best)
					}
				}
			}
			reused += ev.stats.ReusedScans
			ev.Close()
			if a.World != nil {
				a.World.Close()
			}
		}
		if reused == 0 {
			t.Errorf("%s: vacuous: no scan started from a kept world", wc.name)
		}
	}
}

// FuzzScanReuse runs consecutive candidate scans of random stages on one
// evaluator — on gallery, trace and random DAGs, under a random mask,
// alone or arriving into a committed world — and, between scans, moves
// random delays of the vector, so that the kept world meets stages that
// are submitted, ready or pending under their old delays. Every answer
// must equal a fresh run's (see scanCheck), with and without the drain
// cutoff.
func FuzzScanReuse(f *testing.F) {
	f.Add(int64(1), uint8(0), uint64(0), uint8(0), uint8(12))
	f.Add(int64(2), uint8(1), ^uint64(0), uint8(1), uint8(16))
	f.Add(int64(3), uint8(2), uint64(0b1011011011), uint8(2), uint8(10))
	f.Add(int64(4), uint8(1), uint64(0b111100111), uint8(0), uint8(20))
	c := cluster.NewM4LargeCluster(3)
	coarse := sim.Coarsen(c)
	gallery := workload.Gallery(c, 0.2)
	galleryNames := []string{"ETL", "PageRank", "SQLJoin"}
	tr := trace.Generate(trace.GenConfig{Jobs: 80, Seed: 3})
	var traceJobs []*trace.Job
	for i := range tr.Jobs {
		if n := len(tr.Jobs[i].Stages); n >= 4 && n <= 30 {
			traceJobs = append(traceJobs, &tr.Jobs[i])
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, bits uint64, world uint8, scans uint8) {
		rng := rand.New(rand.NewSource(seed))
		wc := whatIfCase{name: "fuzz", opt: Options{Cluster: c}, simOpt: sim.Options{Cluster: coarse, TrackNode: -1}}
		switch kind % 3 {
		case 0:
			wc.job = gallery[galleryNames[rng.Intn(len(galleryNames))]]
		case 1:
			slice := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
			job, err := traceJobs[rng.Intn(len(traceJobs))].Workload(slice, trace.DefaultSplit, nil)
			if err != nil {
				t.Fatal(err)
			}
			wc.job, wc.opt.Cluster, wc.simOpt.Cluster = job, slice, sim.Coarsen(slice)
		default:
			wc.job = workload.RandomJob("fuzz", c, 2+rng.Intn(14), rng)
		}
		if world%3 > 0 {
			wc.simOpt.FairByJob = world%3 == 2
			wc.committed = []sim.JobRun{{Job: workload.RandomJob("committed", c, 5, rng)}}
			wc.at = 10 + float64(rng.Float64()*30)
		}
		n := wc.job.Graph.Len()
		var mask []bool
		if bits != 0 {
			mask = make([]bool, n)
		}
		var active []int
		for p := range n {
			if mask == nil || bits&(1<<(uint(p)%64)) != 0 {
				if mask != nil {
					mask[p] = true
				}
				active = append(active, p)
			}
		}
		if len(active) == 0 {
			return
		}
		a := wc.arrival(t)
		if a.World != nil {
			defer a.World.Close()
		}
		ev, err := newSimEvaluator(wc.opt, wc.job, a, new(PlanStats))
		if err != nil {
			t.Fatal(err)
		}
		defer ev.Close()
		if err := ev.SetActive(mask); err != nil {
			t.Fatal(err)
		}
		// The scans' best never rises, as within one of Alg. 1's planning
		// calls: a configuration a scan cut (memoised as a loser) could
		// otherwise win a later scan against a higher best.
		best := math.Inf(1)
		prev := -1
		delays := make([]float64, n)
		for range 1 + int(scans%24) {
			// Move a few delays, now and then, as a later path's scans
			// or a refinement would see them.
			for range rng.Intn(4) / 2 {
				delays[active[rng.Intn(len(active))]] = float64(rng.Intn(4)) * rng.Float64() * 30
			}
			// Mostly walk down the DAG, as a path's scans do, so that
			// the next stage is not ready yet where the last one was.
			k := active[rng.Intn(len(active))]
			if prev >= 0 && rng.Intn(3) > 0 {
				for _, ch := range wc.job.Graph.ChildPos(prev) {
					if mask == nil || mask[ch] {
						k = ch
						break
					}
				}
			}
			prev = k
			xs := []float64{0}
			for x := 0.0; len(xs) < 5; {
				if x += float64(rng.Float64() * 20); rng.Intn(2) == 0 {
					xs = append(xs, x)
				}
			}
			if rng.Intn(2) == 0 {
				mk, err := ev.Makespan(delays)
				if err != nil {
					t.Fatal(err)
				}
				best = min(best, mk)
			}
			delays[k] = scanCheck(t, wc, ev, mask, delays, k, xs, best)
		}
	})
}
