package core

import (
	"runtime"
	"testing"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/workload"
)

// A parallel Compute must join every goroutine it started — a hand-rolled
// leak check: the goroutine count returns to its pre-call baseline once
// Compute returns, so the held-world scan's drain pool is joined.
func TestComputeJoinsScanGoroutines(t *testing.T) {
	c := cluster.NewM4LargeCluster(20)
	job := workload.PaperWorkloads(c, 0.3)["CosineSimilarity"]
	before := runtime.NumGoroutine()
	s, err := Compute(Options{Cluster: c, Parallelism: 8}, job)
	if err != nil {
		t.Fatal(err)
	}
	if s.ForkedEvals == 0 {
		t.Fatal("vacuous: Compute drained no fork")
	}

	// Scan workers are joined before Compute returns, so the goroutine
	// count must settle back to the baseline (plus slack for runtime
	// background goroutines that may come and go).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
