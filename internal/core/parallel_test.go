package core

import (
	"reflect"
	"testing"

	"delaystage/internal/workload"
)

// The parallel candidate scan must be bit-identical to the sequential one:
// same delays, same makespan, same evaluation count — for both evaluators
// and at worker counts above and below the candidate count.
func TestParallelScanMatchesSequential(t *testing.T) {
	c := c30()
	for _, approx := range []bool{false, true} {
		for name, j := range workload.PaperWorkloads(c, 0.2) {
			seq := computeOK(t, Options{Cluster: c, Approximate: approx}, j)
			for _, par := range []int{2, 8, 100} {
				got := computeOK(t, Options{Cluster: c, Approximate: approx, Parallelism: par}, j)
				if !reflect.DeepEqual(got.Delays, seq.Delays) {
					t.Errorf("%s approx=%v par=%d: delays %v != sequential %v",
						name, approx, par, got.Delays, seq.Delays)
				}
				if got.Makespan != seq.Makespan || got.StockMakespan != seq.StockMakespan {
					t.Errorf("%s approx=%v par=%d: makespan %v/%v != sequential %v/%v",
						name, approx, par, got.Makespan, got.StockMakespan, seq.Makespan, seq.StockMakespan)
				}
				if got.Evaluations != seq.Evaluations {
					t.Errorf("%s approx=%v par=%d: %d evaluations != sequential %d",
						name, approx, par, got.Evaluations, seq.Evaluations)
				}
			}
		}
	}
}
