package core

import (
	"reflect"
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

// TestFingerprintKeyCanonical: a memo key must not depend on map
// iteration order, even for stage IDs far enough apart that their
// difference overflows an int. A non-canonical key would make memo hits,
// and with them the hit/fork/full counters, vary from run to run.
func TestFingerprintKeyCanonical(t *testing.T) {
	delays := map[dag.StageID]float64{-5e18: 1, 0: 2, 5e18: 3, 7: 4}
	all := func(dag.StageID) bool { return true }
	var f fingerprinter
	want := string(f.key("*", delays, all))
	for i := 0; i < 200; i++ {
		if got := string(f.key("*", delays, all)); got != want {
			t.Fatalf("call %d: key %q, want %q", i, got, want)
		}
	}
	if want != "*|-5000000000000000000:3ff0000000000000|0:4000000000000000|7:4010000000000000|5000000000000000000:4008000000000000" {
		t.Fatalf("key %q is not in ascending stage-ID order", want)
	}
}
