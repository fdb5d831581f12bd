package trace

import (
	"bytes"
	"testing"

	"delaystage/internal/cluster"
)

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Puts, so a Job.Graph call may or may not find pooled
// scratch.
var raceEnabled bool

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

// TestParseAllocBudget bounds Parse's allocations per job: rows split in
// the reader's buffer, one string per job name, one []Stage per job,
// parent lists in shared arrays, and a reused cycle check with no
// dag.Graph built.
func TestParseAllocBudget(t *testing.T) {
	tr, src := allocTrace(t)
	const budget = 3 // allocations per job; 2.1 measured, go1.24
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
// dag.Build with pooled scratch plus the phase profiles. It is not
// checked under -race, where the pool drops a random share of the
// scratch; CI runs it without -race as well.
func TestWorkloadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	tr, _ := allocTrace(t)
	ref := cluster.NewM4LargeCluster(2)
	const budget = 14 // allocations per job; 9.6 measured, go1.24
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

// BenchmarkParse times Parse on the budget tests' 1,000-job trace and
// reports the cost per job.
func BenchmarkParse(b *testing.B) {
	tr := Generate(GenConfig{Jobs: 1000, Seed: 3})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Jobs)), "ns/job")
}

// BenchmarkWorkload times Job.Workload over the same 1,000 jobs and
// reports the cost per job.
func BenchmarkWorkload(b *testing.B) {
	tr := Generate(GenConfig{Jobs: 1000, Seed: 3})
	ref := cluster.NewM4LargeCluster(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range tr.Jobs {
			if _, err := tr.Jobs[k].Workload(ref, DefaultSplit, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Jobs)), "ns/job")
}
