package dag

import (
	"math/rand"
	"testing"
)

// TestBuildAllocBudget bounds Build's allocations for a 40-stage graph:
// the graph, its stage map, the stage array, one StageID array for the
// order, parents and child IDs, and one int array for the whole position
// index, whatever the number of stages and edges.
func TestBuildAllocBudget(t *testing.T) {
	g := shuffledDAG(rand.New(rand.NewSource(1)), 40)
	ids, parents := g.StagesView(), positions(g)
	const budget = 10 // allocations per Build; 8 measured, go1.24
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Build(ids, parents); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Build: %.0f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("Build allocates %.0f times (budget %d): the one-pass constructor regressed", allocs, budget)
	}
}
