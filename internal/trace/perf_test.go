package trace

import (
	"bytes"
	"testing"

	"delaystage/internal/cluster"
)

// allocTrace is the allocation budgets' input: 1,000 generated jobs
// written out as batch_task.csv.
func allocTrace(t *testing.T) (*Trace, []byte) {
	t.Helper()
	tr := Generate(GenConfig{Jobs: 1000, Seed: 3})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestParseAllocBudget bounds Parse's allocations per job: one scan of
// each row's name, parent lists in shared arrays, and one index-based
// cycle check per job with no dag.Graph built.
func TestParseAllocBudget(t *testing.T) {
	tr, src := allocTrace(t)
	const budget = 27 // allocations per job; 19.0 measured, go1.24
	perJob := testing.AllocsPerRun(3, func() {
		if _, err := Parse(bytes.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(tr.Jobs))
	t.Logf("Parse: %.1f allocs/job (budget %d)", perJob, budget)
	if perJob > budget {
		t.Errorf("Parse allocates %.1f times per job (budget %d): trace ingestion regressed", perJob, budget)
	}
}

// TestWorkloadAllocBudget bounds Job.Workload's allocations per job: one
// presized graph build plus the phase profiles.
func TestWorkloadAllocBudget(t *testing.T) {
	tr, _ := allocTrace(t)
	ref := cluster.NewM4LargeCluster(2)
	const budget = 31 // allocations per job; 21.8 measured, go1.24
	perJob := testing.AllocsPerRun(3, func() {
		for i := range tr.Jobs {
			if _, err := tr.Jobs[i].Workload(ref, DefaultSplit, nil); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(tr.Jobs))
	t.Logf("Workload: %.1f allocs/job (budget %d)", perJob, budget)
	if perJob > budget {
		t.Errorf("Workload allocates %.1f times per job (budget %d): job materialisation regressed", perJob, budget)
	}
}
