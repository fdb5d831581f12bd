package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// whatIfCase is one sim evaluator under test and what the oracle needs
// to re-run its answers from scratch: the simulator options of its
// worlds, the committed runs the job arrives into (none = an empty
// cluster) and the arrival time.
type whatIfCase struct {
	name      string
	opt       Options
	job       *workload.Job
	simOpt    sim.Options
	committed []sim.JobRun
	at        float64
}

// arrival builds the case's Arrival: its committed runs paused just
// before the arrival time, or an empty cluster. The caller closes the
// world.
func (wc whatIfCase) arrival(t testing.TB) Arrival {
	t.Helper()
	a := Arrival{At: wc.at, FairByJob: wc.simOpt.FairByJob}
	if wc.committed != nil {
		w, err := sim.NewStepper(wc.simOpt, wc.committed)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AdvanceBefore(wc.at); err != nil {
			t.Fatal(err)
		}
		a.World = w
	}
	return a
}

// fresh is the oracle: Σ JCT of a fresh sim.Run over the committed runs
// plus the job, masked, arriving with the delays (by position).
func (wc whatIfCase) fresh(t testing.TB, mask []bool, delays []float64) float64 {
	t.Helper()
	ids := wc.job.Graph.StagesView()
	run := sim.JobRun{Job: wc.job, Arrival: wc.at, Active: mask, Placement: wc.opt.Placement,
		Delays: map[dag.StageID]float64{}}
	for p, x := range delays {
		run.Delays[ids[p]] = x
	}
	res, err := sim.Run(wc.simOpt, append(slices.Clone(wc.committed), run))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range res.JobEnd {
		sum += res.JCT(i)
	}
	return sum
}

// checkAnswersMatchFreshSim holds the sim evaluator's what-if layers to
// an oracle that shares none of them: under every mask, each active
// stage's candidates are priced by a Scan (forks of a held world, drained
// on one or four workers), by the same Scan again (all memo hits) and by
// Makespan on a second evaluator (full runs), and every answer must equal,
// bit for bit, the Σ JCT of a fresh sim.Run over the committed runs plus
// the masked job arriving with those delays.
func checkAnswersMatchFreshSim(t *testing.T, wc whatIfCase, masks [][]bool, rng *rand.Rand) {
	t.Helper()
	a := wc.arrival(t)
	if a.World != nil {
		defer a.World.Close()
	}
	scanEv, err := newSimEvaluator(wc.opt, wc.job, a, new(PlanStats))
	if err != nil {
		t.Fatal(err)
	}
	defer scanEv.Close()
	fullEv, err := newSimEvaluator(wc.opt, wc.job, a, new(PlanStats))
	if err != nil {
		t.Fatal(err)
	}
	defer fullEv.Close()
	ids := wc.job.Graph.StagesView()
	xs := []float64{0, 2.5, 7, 15, 40}
	mks := make([]float64, len(xs))
	for mi, mask := range masks {
		if err := scanEv.SetActive(mask); err != nil {
			t.Fatal(err)
		}
		if err := fullEv.SetActive(mask); err != nil {
			t.Fatal(err)
		}
		delays := make([]float64, len(ids))
		for p := range delays {
			if rng.Intn(3) == 0 {
				delays[p] = float64(1 + rng.Intn(20))
			}
		}
		for k := range ids {
			if mask != nil && !mask[k] {
				continue
			}
			want := make([]float64, len(xs))
			for i, x := range xs {
				d := slices.Clone(delays)
				d[k] = x
				want[i] = wc.fresh(t, mask, d)
				got, err := fullEv.Makespan(d)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("%s mask %d stage %d x=%v: Makespan %v, fresh run %v", wc.name, mi, ids[k], x, got, want[i])
				}
			}
			for pass := range 2 {
				before := *scanEv.stats
				n, err := scanEv.Scan(delays, k, xs, mks, math.Inf(1))
				if err != nil || n != len(xs) {
					t.Fatalf("%s mask %d stage %d: Scan answered %d of %d (%v)", wc.name, mi, ids[k], n, len(xs), err)
				}
				if pass == 1 && (scanEv.stats.CacheHits-before.CacheHits != len(xs) || scanEv.stats.ForkedEvals != before.ForkedEvals) {
					t.Fatalf("%s mask %d stage %d: a repeated scan was not all memo hits", wc.name, mi, ids[k])
				}
				for i, x := range xs {
					if math.Float64bits(mks[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s mask %d stage %d x=%v pass %d: Scan %v, fresh run %v", wc.name, mi, ids[k], x, pass, mks[i], want[i])
					}
				}
			}
		}
	}
	if scanEv.stats.ForkedEvals == 0 || fullEv.stats.FullEvals == 0 {
		t.Fatalf("%s: vacuous: %d forked scan answers, %d full runs", wc.name, scanEv.stats.ForkedEvals, fullEv.stats.FullEvals)
	}
}

// TestEvalCacheSchedulesByteIdentical is the contract of the what-if
// layers: memo hits, held-world forks and full runs all answer the Σ JCT
// of a fresh simulation, bit for bit, on every paper workload under
// several active masks, alone and arriving into a committed world — so
// Compute's schedules are those of Alg. 1 as written. Compute's work
// counters must account for every evaluation, and both fast paths must
// actually fire.
func TestEvalCacheSchedulesByteIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	jobs := workload.PaperWorkloads(c, 0.25)
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(5))
	committed := []sim.JobRun{{Job: workload.ALS(c, 0.25)}}
	for _, name := range names {
		job := jobs[name]
		n := job.Graph.Len()
		half, some := make([]bool, n), make([]bool, n)
		for p := range n {
			half[p] = p%2 == 0
			some[p] = rng.Intn(3) > 0
		}
		masks := [][]bool{nil, half, some}
		for _, wc := range []whatIfCase{
			{name: name, opt: Options{Cluster: c}, job: job,
				simOpt: sim.Options{Cluster: sim.Coarsen(c), TrackNode: -1}},
			{name: name + "/arrival", opt: Options{Cluster: c}, job: job,
				simOpt:    sim.Options{Cluster: sim.Coarsen(c), TrackNode: -1, FairByJob: true},
				committed: committed, at: 40},
		} {
			checkAnswersMatchFreshSim(t, wc, masks, rng)
		}

		on := computeOK(t, Options{Cluster: c, MaxCandidates: 10}, job)
		// Counter bookkeeping: every evaluation is exactly one of
		// hit / forked / full.
		if got := on.CacheHits + on.ForkedEvals + on.FullEvals; got != on.Evaluations {
			t.Fatalf("%s: counters %d+%d+%d != evaluations %d",
				name, on.CacheHits, on.ForkedEvals, on.FullEvals, on.Evaluations)
		}
		// These workloads re-query many configurations and scan many
		// candidates per stage: both fast paths must actually fire.
		if on.CacheHits == 0 {
			t.Errorf("%s: memo cache never hit", name)
		}
		if on.ForkedEvals == 0 {
			t.Errorf("%s: no evaluation was forked", name)
		}
	}
}

// TestFingerprintKeyProperties pins the memo key's contract on a job
// whose stage IDs lie far apart (±5e18): a key does not depend on the
// order in which delays were written; zero entries and delays of inactive
// stages drop out; and distinct (active set, effective delay vector)
// configurations never share a key. The unrestricted set (nil) and a
// mask naming every stage are distinct configurations to the memo.
func TestFingerprintKeyProperties(t *testing.T) {
	c := cluster.NewM4LargeCluster(2)
	ids := []dag.StageID{-5e18, 0, 5e18, 7, -3, 12, 9, 1 << 40, -(1 << 40)}
	g := dag.New()
	profiles := map[dag.StageID]workload.StageProfile{}
	for _, id := range ids {
		g.MustAdd(dag.Stage{ID: id})
		profiles[id] = workload.FromPhases(c, workload.PhaseSpec{ReadSec: 1, ComputeSec: 1})
	}
	job := &workload.Job{Name: "far", Graph: g, Profiles: profiles}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	n := len(ids)
	rng := rand.New(rand.NewSource(7))
	var f fingerprinter
	// canon is a configuration's identity: the tag, the mask and the
	// delays of active stages, zeros dropped.
	canon := func(mask []bool, delays []float64) string {
		a := newActiveSet(mask, n)
		s := fmt.Sprint(mask == nil, mask)
		for p, v := range delays {
			if v != 0 && a.on(p) {
				s += fmt.Sprintf(" %d:%x", p, math.Float64bits(v))
			}
		}
		return s
	}
	seen := map[string]string{}
	values := []float64{0, math.Copysign(0, -1), 1, 2, 0.5, 1e-300, 3e8, math.Nextafter(1, 2)}
	for trial := 0; trial < 4000; trial++ {
		var mask []bool
		if rng.Intn(4) > 0 {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = rng.Intn(3) > 0
			}
		}
		a := newActiveSet(mask, n)
		delays := make([]float64, n)
		for i := range delays {
			if rng.Intn(2) == 0 {
				delays[i] = values[rng.Intn(len(values))]
			}
		}
		key := string(f.key(&a, delays))
		// Insertion order: the same delays written in a shuffled order.
		again := make([]float64, n)
		for _, p := range rng.Perm(n) {
			again[p] = delays[p]
		}
		if got := string(f.key(&a, again)); got != key {
			t.Fatalf("trial %d: key depends on insertion order", trial)
		}
		// Zero entries and inactive stages drop out.
		noisy := slices.Clone(delays)
		for p := range noisy {
			if !a.on(p) {
				noisy[p] = values[rng.Intn(len(values))]
			} else if noisy[p] == 0 {
				noisy[p] = math.Copysign(0, -1)
			}
		}
		if got := string(f.key(&a, noisy)); got != key {
			t.Fatalf("trial %d: zero or inactive entries changed the key", trial)
		}
		id := canon(mask, delays)
		if id == canon(mask, nil) && string(f.key(&a, nil)) != key {
			t.Fatalf("trial %d: no effective delay and nil delays keyed apart", trial)
		}
		if prev, ok := seen[key]; ok && prev != id {
			t.Fatalf("trial %d: configurations %q and %q share a key", trial, prev, id)
		}
		seen[key] = id
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	unrestricted, full := newActiveSet(nil, n), newActiveSet(all, n)
	if k := string(f.key(&unrestricted, nil)); k == string(f.key(&full, nil)) {
		t.Fatal("the unrestricted set and a full mask share a key")
	}
}
