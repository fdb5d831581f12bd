package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// scanArgmin is scan's argmin loop over a scan's answers: the index of the
// winning candidate (-1: none beat best) and the best it leaves.
func scanArgmin(mks []float64, best float64) (int, float64) {
	win := -1
	for i, mk := range mks {
		if mk < best-sim.ScanTolerance {
			win, best = i, mk
		}
	}
	return win, best
}

// TestScanCutMemoContract pins the drain cutoff's contract with the memo
// cache on every paper workload, alone and arriving into a committed
// world. For each stage, a scan against the real scan-start best and one
// against +Inf (no cutoff) pick the same argmin at the same makespan, and
// every candidate the first did not cut reads the second's makespan bit
// for bit. Repeating the cut scan answers every candidate from the memo,
// markers included, and moves no other counter. Makespan on a
// configuration that was cut simulates it afresh (a full run, not a hit)
// and returns the uncut answer, never the marker; asking again hits.
func TestScanCutMemoContract(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	jobs := workload.PaperWorkloads(c, 0.25)
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	committed := []sim.JobRun{{Job: workload.ALS(c, 0.25)}}
	xs := []float64{0, 2.5, 7, 15, 40, 90}
	cuts := 0
	for _, name := range names {
		job := jobs[name]
		for _, withWorld := range []bool{false, true} {
			a := Arrival{}
			if withWorld {
				w, err := sim.NewStepper(sim.Options{Cluster: sim.Coarsen(c), TrackNode: -1, FairByJob: true}, committed)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				if err := w.AdvanceBefore(40); err != nil {
					t.Fatal(err)
				}
				a = Arrival{World: w, At: 40, FairByJob: true}
			}
			cutEv, err := newSimEvaluator(Options{Cluster: c}, job, a, new(PlanStats))
			if err != nil {
				t.Fatal(err)
			}
			defer cutEv.Close()
			fullEv, err := newSimEvaluator(Options{Cluster: c}, job, a, new(PlanStats))
			if err != nil {
				t.Fatal(err)
			}
			defer fullEv.Close()

			delays := make([]float64, job.Graph.Len())
			got, want := make([]float64, len(xs)), make([]float64, len(xs))
			for k := range delays {
				best, err := cutEv.Makespan(delays)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cutEv.Scan(delays, k, xs, got, best); err != nil {
					t.Fatal(err)
				}
				if _, err := fullEv.Scan(delays, k, xs, want, math.Inf(1)); err != nil {
					t.Fatal(err)
				}
				gi, gb := scanArgmin(got, best)
				wi, wb := scanArgmin(want, best)
				if gi != wi || math.Float64bits(gb) != math.Float64bits(wb) {
					t.Fatalf("%s world=%v stage %d: argmin %d at %v with the cutoff, %d at %v without",
						name, withWorld, k, gi, gb, wi, wb)
				}
				for i := range xs {
					if !math.IsInf(got[i], 1) && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s world=%v stage %d x=%v: uncut answer %v, want %v", name, withWorld, k, xs[i], got[i], want[i])
					}
				}

				before := *cutEv.stats
				again := make([]float64, len(xs))
				if _, err := cutEv.Scan(delays, k, xs, again, best); err != nil {
					t.Fatal(err)
				}
				after := before
				after.CacheHits += len(xs)
				if *cutEv.stats != after || !slices.Equal(again, got) {
					t.Fatalf("%s world=%v stage %d: repeated scan moved %+v to %+v, answers %v then %v",
						name, withWorld, k, before, *cutEv.stats, got, again)
				}

				for i, x := range xs {
					if !math.IsInf(got[i], 1) {
						continue
					}
					cuts++
					d := slices.Clone(delays)
					d[k] = x
					before := *cutEv.stats
					mk, err := cutEv.Makespan(d)
					if err != nil {
						t.Fatal(err)
					}
					after := before
					after.FullEvals++
					if math.Float64bits(mk) != math.Float64bits(want[i]) || *cutEv.stats != after {
						t.Fatalf("%s world=%v stage %d x=%v: Makespan of a cut configuration %v (counters %+v → %+v), want a fresh run's %v",
							name, withWorld, k, x, mk, before, *cutEv.stats, want[i])
					}
					after.CacheHits++
					if mk2, err := cutEv.Makespan(d); err != nil || math.Float64bits(mk2) != math.Float64bits(mk) || *cutEv.stats != after {
						t.Fatalf("%s world=%v stage %d x=%v: Makespan asked again: %v (%v), counters %+v", name, withWorld, k, x, mk2, err, *cutEv.stats)
					}
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("vacuous: no scan drain was cut")
	}
}
