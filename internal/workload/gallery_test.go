package workload

import (
	"testing"

	"delaystage/internal/dag"
)

func TestGalleryValidates(t *testing.T) {
	ref := ref30()
	for name, j := range Gallery(ref, 1.0) {
		if err := j.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGalleryShapes(t *testing.T) {
	ref := ref30()
	cases := []struct {
		job       *Job
		stages    int
		minK      int
		seqLeaves int
	}{
		{PageRank(ref, 1), 8, 4, 1},
		{SQLJoin(ref, 1), 8, 5, 1},
		{ETL(ref, 1), 7, 4, 2},
	}
	for _, c := range cases {
		if got := c.job.Graph.Len(); got != c.stages {
			t.Errorf("%s: %d stages, want %d", c.job.Name, got, c.stages)
		}
		r, err := dag.NewReachability(c.job.Graph)
		if err != nil {
			t.Fatal(err)
		}
		k := dag.ParallelStages(c.job.Graph, r)
		if len(k) < c.minK {
			t.Errorf("%s: |K| = %d, want ≥ %d", c.job.Name, len(k), c.minK)
		}
		g, leaves := c.job.Graph, 0
		for _, id := range g.StagesView() {
			if len(g.ChildrenView(id)) == 0 {
				leaves++
			}
		}
		if leaves != c.seqLeaves {
			t.Errorf("%s: %d leaves, want %d", c.job.Name, leaves, c.seqLeaves)
		}
	}
}

func TestGalleryIterationStructure(t *testing.T) {
	// PageRank's second iteration must depend on the first.
	j := PageRank(ref30(), 1)
	r, _ := dag.NewReachability(j.Graph)
	if !r.Reaches(5, 6) || !r.Reaches(6, 7) {
		t.Error("iteration 2 must depend on iteration 1's ranks")
	}
	// Degrees (3) feeds both rank updates.
	if !r.Reaches(3, 5) || !r.Reaches(3, 7) {
		t.Error("degrees must feed both rank updates")
	}
}
