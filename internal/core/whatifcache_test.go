package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// TestEvalCacheSchedulesByteIdentical is the contract of the what-if
// layers: the memo cache is exact and forked runs are bit-identical to
// from-scratch runs, so Compute must return the very same schedule with
// the layers on (default) and off (DisableEvalCache), at any parallelism.
// The work counters must also be parallelism-invariant — they surface in
// experiment JSON that is compared across parallelism settings.
func TestEvalCacheSchedulesByteIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	jobs := workload.PaperWorkloads(c, 0.25)
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		job := jobs[name]
		base := Options{Cluster: c, MaxCandidates: 10}
		var ref *Schedule
		for _, par := range []int{1, 4} {
			opt := base
			opt.Parallelism = par
			on, err := Compute(opt, job)
			if err != nil {
				t.Fatal(err)
			}
			opt.DisableEvalCache = true
			off, err := Compute(opt, job)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(on.Delays, off.Delays) {
				t.Fatalf("%s par=%d: delays differ with cache on/off:\non:  %v\noff: %v",
					name, par, on.Delays, off.Delays)
			}
			if on.Makespan != off.Makespan || on.StockMakespan != off.StockMakespan {
				t.Fatalf("%s par=%d: makespans differ with cache on/off: %v/%v vs %v/%v",
					name, par, on.Makespan, on.StockMakespan, off.Makespan, off.StockMakespan)
			}
			if on.Evaluations != off.Evaluations {
				t.Fatalf("%s par=%d: evaluation counts differ: %d vs %d",
					name, par, on.Evaluations, off.Evaluations)
			}
			// Counter bookkeeping: every evaluation is exactly one of
			// hit / forked / full; disabling the cache forces all-full.
			if got := on.CacheHits + on.ForkedEvals + on.FullEvals; got != on.Evaluations {
				t.Fatalf("%s par=%d: counters %d+%d+%d != evaluations %d",
					name, par, on.CacheHits, on.ForkedEvals, on.FullEvals, on.Evaluations)
			}
			if off.CacheHits != 0 || off.ForkedEvals != 0 || off.FullEvals != off.Evaluations {
				t.Fatalf("%s par=%d: disabled cache still reports hits=%d forked=%d full=%d/%d",
					name, par, off.CacheHits, off.ForkedEvals, off.FullEvals, off.Evaluations)
			}
			// These workloads re-query many configurations and scan many
			// candidates per stage: both fast paths must actually fire.
			if on.CacheHits == 0 {
				t.Errorf("%s par=%d: memo cache never hit", name, par)
			}
			if on.ForkedEvals == 0 {
				t.Errorf("%s par=%d: no evaluation was forked", name, par)
			}
			if ref == nil {
				ref = on
				continue
			}
			// Parallelism must change neither the schedule nor the counters.
			if !reflect.DeepEqual(ref.Delays, on.Delays) || ref.Makespan != on.Makespan {
				t.Fatalf("%s: schedule differs across parallelism", name)
			}
			if ref.CacheHits != on.CacheHits || ref.ForkedEvals != on.ForkedEvals || ref.FullEvals != on.FullEvals {
				t.Fatalf("%s: counters differ across parallelism: %d/%d/%d vs %d/%d/%d",
					name, ref.CacheHits, ref.ForkedEvals, ref.FullEvals,
					on.CacheHits, on.ForkedEvals, on.FullEvals)
			}
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
