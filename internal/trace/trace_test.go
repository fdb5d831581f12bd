package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
)

func TestParseTaskName(t *testing.T) {
	cases := []struct {
		in      string
		id      int
		parents []int
		ok      bool
	}{
		{"M1", 1, nil, true},
		{"R3_1_2", 3, []int{1, 2}, true},
		{"M2_1", 2, []int{1}, true},
		{"J10_4", 10, []int{4}, true},
		{"task_1234", 0, nil, false},
		{"MergeTask", 0, nil, false},
		{"", 0, nil, false},
		{"M", 0, nil, false},
		{"M1_x", 0, nil, false},
	}
	for _, c := range cases {
		id, parents, ok := scanTaskName([]byte(c.in), nil)
		if ok != c.ok {
			t.Errorf("%q: ok=%v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if id != c.id || len(parents) != len(c.parents) {
			t.Errorf("%q: id=%d parents=%v, want %d %v", c.in, id, parents, c.id, c.parents)
			continue
		}
		for i := range parents {
			if parents[i] != c.parents[i] {
				t.Errorf("%q: parents=%v, want %v", c.in, parents, c.parents)
			}
		}
	}
}

const sampleCSV = `M1,1,job_a,batch,Terminated,100,150,100,0.5
M2,1,job_a,batch,Terminated,100,140,100,0.5
R3_1_2,1,job_a,batch,Terminated,150,200,100,0.5
task_merge,1,job_a,batch,Terminated,90,95,50,0.2
M1,1,job_b,batch,Terminated,500,600,100,0.5
`

func TestParseSample(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(tr.Jobs))
	}
	a := tr.Jobs[0]
	if a.Name != "job_a" || len(a.Stages) != 4 {
		t.Fatalf("job_a = %+v", a)
	}
	if a.Arrival != 90 {
		t.Fatalf("job_a arrival %v, want 90 (earliest stage start)", a.Arrival)
	}
	g, err := a.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Parents(3); len(got) != 2 {
		t.Fatalf("stage 3 parents = %v", got)
	}
	// The unstructured task got a fresh ID (4) with no parents.
	if got := g.Parents(4); len(got) != 0 {
		t.Fatalf("synthetic stage parents = %v", got)
	}
}

func TestParseBadRecord(t *testing.T) {
	if _, err := Parse(strings.NewReader("M1,1,j\n")); err == nil {
		t.Fatal("short record must error")
	}
	if _, err := Parse(strings.NewReader("M1,1,j,b,T,abc,200,1,1\n")); err == nil {
		t.Fatal("bad start time must error")
	}
}

func TestParseDuplicateStageRows(t *testing.T) {
	csv := "M1,1,j,b,T,0,10,1,1\nM1,2,j,b,T,0,12,1,1\n"
	tr, err := Parse(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs[0].Stages) != 1 {
		t.Fatalf("duplicates must collapse: %+v", tr.Jobs[0].Stages)
	}
}

func TestParseDanglingParent(t *testing.T) {
	csv := "R2_9,1,j,b,T,0,10,1,1\n"
	tr, err := Parse(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	g, err := tr.Jobs[0].Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Parents(2); len(got) != 0 {
		t.Fatalf("dangling parent must be dropped, got %v", got)
	}
}

func TestRoundTrip(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 50, Seed: 3})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("round trip: %d jobs, want %d", len(back.Jobs), len(tr.Jobs))
	}
	for i := range tr.Jobs {
		if len(back.Jobs[i].Stages) != len(tr.Jobs[i].Stages) {
			t.Fatalf("job %d: %d stages, want %d", i, len(back.Jobs[i].Stages), len(tr.Jobs[i].Stages))
		}
		for k, s := range tr.Jobs[i].Stages {
			got := back.Jobs[i].Stages[k]
			if got.ID != s.ID || !reflect.DeepEqual(got.Parents, s.Parents) {
				t.Fatalf("job %d stage %d: got %d %v, want %d %v", i, k, got.ID, got.Parents, s.ID, s.Parents)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Jobs: 30, Seed: 9})
	b := Generate(GenConfig{Jobs: 30, Seed: 9})
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != b.Jobs[i].Arrival || len(a.Jobs[i].Stages) != len(b.Jobs[i].Stages) {
			t.Fatal("same seed must give identical trace")
		}
	}
}

// TestGenerateMatchesPaperMarginals is the calibration test: the synthetic
// trace must reproduce the statistics the paper reports (Sec. 2.1),
// within tolerance.
func TestGenerateMatchesPaperMarginals(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 4000, Seed: 1})
	stats := Analyze(tr)
	s := Summarize(stats)
	// Paper: 68.6% of jobs have parallel stages.
	if s.JobsWithParallelShare < 0.62 || s.JobsWithParallelShare > 0.75 {
		t.Errorf("jobs-with-parallel share %.3f, want ≈0.686", s.JobsWithParallelShare)
	}
	// Paper: parallel stages are 79.1% of all stages.
	if s.ParallelStageShare < 0.70 || s.ParallelStageShare > 0.90 {
		t.Errorf("parallel stage share %.3f, want ≈0.79", s.ParallelStageShare)
	}
	// Paper: parallel-stage makespan averages 82.3% of job time.
	if s.MeanParallelFrac < 0.65 || s.MeanParallelFrac > 0.95 {
		t.Errorf("mean parallel makespan fraction %.3f, want ≈0.82", s.MeanParallelFrac)
	}
	// Paper (Fig. 2): ~90% of jobs have <15 parallel stages.
	under15 := 0
	for _, js := range stats {
		if js.ParallelStages < 15 {
			under15++
		}
	}
	frac := float64(under15) / float64(len(stats))
	if frac < 0.82 || frac > 0.97 {
		t.Errorf("jobs with <15 parallel stages: %.3f, want ≈0.90", frac)
	}
	// Stage runtimes must span the paper's 10–3,000 s band.
	minD, maxD := 1e18, 0.0
	for _, j := range tr.Jobs {
		for _, st := range j.Stages {
			d := st.Duration()
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	if minD < 9.99 || maxD > 3000 {
		t.Errorf("stage durations [%.1f, %.1f] outside [10, 3000]", minD, maxD)
	}
	if maxD < 1000 {
		t.Errorf("max duration %.1f; want a long tail", maxD)
	}
	// Stage counts must reach a tail past 100 but stay ≤ MaxStages.
	maxStages := 0
	for _, js := range stats {
		if js.Stages > maxStages {
			maxStages = js.Stages
		}
	}
	if maxStages > 186 {
		t.Errorf("max stages %d > 186", maxStages)
	}
	if maxStages < 60 {
		t.Errorf("max stages %d; want a heavy tail (paper max 186)", maxStages)
	}
}

func TestGenerateScheduleConsistent(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 200, Seed: 5})
	for _, j := range tr.Jobs {
		byID := map[int]Stage{}
		for _, s := range j.Stages {
			byID[s.ID] = s
		}
		for _, s := range j.Stages {
			if s.End <= s.Start {
				t.Fatalf("job %s stage %d: end ≤ start", j.Name, s.ID)
			}
			if s.Start < j.Arrival-1e-9 {
				t.Fatalf("job %s stage %d starts before arrival", j.Name, s.ID)
			}
			for _, p := range s.Parents {
				if ps, ok := byID[p]; ok && s.Start < ps.End-1e-9 {
					t.Fatalf("job %s stage %d starts before parent %d ends", j.Name, s.ID, p)
				}
			}
		}
	}
}

func TestSortByArrival(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 100, Seed: 2})
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Arrival < tr.Jobs[i-1].Arrival {
			t.Fatal("jobs not sorted by arrival")
		}
	}
}

func TestWorkloadConversion(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 20, Seed: 4})
	ref := cluster.NewM4LargeCluster(4)
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		wj, err := j.Workload(ref, DefaultSplit, nil)
		if err != nil {
			t.Fatalf("job %s: %v", j.Name, err)
		}
		if wj.Graph.Len() != len(j.Stages) {
			t.Fatalf("job %s: %d stages, want %d", j.Name, wj.Graph.Len(), len(j.Stages))
		}
	}
}

// addStageGraph is Job.Graph as AddStage and Validate build it, with a
// map for the known IDs: the reference TestJobGraphMatchesAddStage holds
// the pooled dag.Build path to.
func addStageGraph(j *Job) (*dag.Graph, error) {
	known := map[int]bool{}
	for _, s := range j.Stages {
		known[s.ID] = true
	}
	g := dag.New()
	for _, s := range j.Stages {
		var parents []dag.StageID
		for _, p := range s.Parents {
			if known[p] && p != s.ID {
				parents = append(parents, dag.StageID(p))
			}
		}
		if err := g.AddStage(dag.Stage{ID: dag.StageID(s.ID), Parents: parents}); err != nil {
			return nil, fmt.Errorf("trace job %s: %w", j.Name, err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("trace job %s: %w", j.Name, err)
	}
	return g, nil
}

// TestJobGraphMatchesAddStage: Job.Graph gives the graph, or the error
// text, that AddStage and Validate give — for generated jobs and for
// dangling, self and repeated parents, duplicate, sparse and negative
// IDs, and cycles — while four goroutines share its pooled scratch.
func TestJobGraphMatchesAddStage(t *testing.T) {
	jobs := Generate(GenConfig{Jobs: 60, Seed: 5}).Jobs
	jobs = append(jobs,
		Job{Name: "dangling", Stages: []Stage{{ID: 1, Parents: []int{7, 1}}, {ID: 2, Parents: []int{1, 1, 9}}}},
		Job{Name: "dup", Stages: []Stage{{ID: 3}, {ID: 4, Parents: []int{3}}, {ID: 3, Parents: []int{4}}}},
		Job{Name: "sparse", Stages: []Stage{{ID: 1 << 40}, {ID: -5, Parents: []int{1 << 40}}, {ID: 2, Parents: []int{-5}}}},
		Job{Name: "cycle", Stages: []Stage{{ID: 1, Parents: []int{3}}, {ID: 2, Parents: []int{1}}, {ID: 3, Parents: []int{2}}}},
		Job{Name: "empty"},
	)
	check := func(j *Job) error {
		got, err := j.Graph()
		want, wantErr := addStageGraph(j)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				return fmt.Errorf("job %s: error %v, want %v", j.Name, err, wantErr)
			}
			return nil
		}
		gt, _ := got.TopoSort()
		wt, _ := want.TopoSort()
		if !slices.Equal(got.StagesView(), want.StagesView()) || !slices.Equal(gt, wt) ||
			!slices.Equal(got.IDOrderPos(), want.IDOrderPos()) {
			return fmt.Errorf("job %s: graphs differ", j.Name)
		}
		for i, id := range got.StagesView() {
			if !slices.Equal(got.Parents(id), want.Parents(id)) || !slices.Equal(got.ChildrenView(id), want.ChildrenView(id)) ||
				!slices.Equal(got.ChildPos(i), want.ChildPos(i)) || !slices.Equal(got.ParentPos(i), want.ParentPos(i)) {
				return fmt.Errorf("job %s: stage %d differs", j.Name, id)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				if err := check(&jobs[(k+w*17)%len(jobs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestWorkloadBadSplit(t *testing.T) {
	tr := Generate(GenConfig{Jobs: 1, Seed: 4})
	ref := cluster.NewM4LargeCluster(2)
	if _, err := tr.Jobs[0].Workload(ref, PhaseSplit{Read: 0.9, Write: 0.2}, nil); err == nil {
		t.Fatal("overfull split must error")
	}
	if _, err := tr.Jobs[0].Workload(ref, PhaseSplit{Read: -0.1}, nil); err == nil {
		t.Fatal("negative split must error")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Jobs != 0 || s.ParallelStageShare != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestAnalyzeChainJob(t *testing.T) {
	tr := &Trace{Jobs: []Job{{
		Name: "chain",
		Stages: []Stage{
			{ID: 1, Start: 0, End: 10},
			{ID: 2, Parents: []int{1}, Start: 10, End: 20},
		},
	}}}
	stats := Analyze(tr)
	if len(stats) != 1 || stats[0].ParallelStages != 0 || stats[0].ParallelMakespanFrac != 0 {
		t.Fatalf("chain stats = %+v", stats)
	}
}

// scanTaskName accepts exactly the names that decode fully under the
// dependency grammar; unstructured names and names that break the grammar
// mid-way are both rejected, and their tasks become independent stages.
func TestClassifyTaskName(t *testing.T) {
	cases := []struct {
		in         string
		structured bool
	}{
		{"M1", true},
		{"R3_1_2", true},
		{"task_1234", false},
		{"MergeTask", false},
		{"", false},
		{"M3_1_x", false},
		{"M1_", false},
		{"R2_2_", false},
	}
	for _, c := range cases {
		if _, _, ok := scanTaskName([]byte(c.in), nil); ok != c.structured {
			t.Errorf("scanTaskName(%q) ok=%v, want %v", c.in, ok, c.structured)
		}
	}
}

// Parse must absorb the corrupt names and rows the real trace contains:
// a malformed dependency list keeps its stage without edges, a
// self-dependency loses that edge, and a duplicate row collapses.
func TestParseToleratesCorruptRows(t *testing.T) {
	src := "M1,1,j,b,T,0,10,1,1\n" + // good
		"M2_1,1,j,b,T,10,20,1,1\n" + // good, dependent
		"M3_1_x,1,j,b,T,10,30,1,1\n" + // malformed dep token: kept, edges dropped
		"R4_4_1,1,j,b,T,30,40,1,1\n" + // self-dependency: edge dropped
		"M1,9,j,b,T,0,12,1,1\n" // duplicate row
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(tr.Jobs))
	}
	j := tr.Jobs[0]
	if len(j.Stages) != 4 {
		t.Fatalf("job has %d stages, want 4: %+v", len(j.Stages), j.Stages)
	}
	g, err := j.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// Self-dep dropped at parse time: stage 4 keeps only the edge to 1.
	if got := g.Parents(4); len(got) != 1 || got[0] != 1 {
		t.Fatalf("stage 4 parents = %v, want [1]", got)
	}
	// The malformed row gets the synthetic ID after the max structured one.
	if got := g.Parents(5); g.Stage(5) == nil || len(got) != 0 {
		t.Fatalf("malformed row: stage 5 = %v with parents %v, want an independent stage", g.Stage(5), got)
	}
}

// Parse must name the offending row in its errors.
func TestParseErrorsNameTheRow(t *testing.T) {
	_, err := Parse(strings.NewReader("M1,1,j,b,T,0,10,1,1\nM2,1,j,b,T,x,y,1,1\n"))
	if err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("want row-numbered error, got %v", err)
	}
}

// Parse drops a self-dependency from the Stage itself, not only from the
// graph built from it.
func TestParseSelfDependencyDropped(t *testing.T) {
	tr, err := Parse(strings.NewReader("R2_2_1,1,j,b,T,0,10,1,1\nM1,1,j,b,T,0,5,1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Jobs[0].Stages {
		for _, p := range s.Parents {
			if p == s.ID {
				t.Fatalf("stage %d still lists itself as parent", s.ID)
			}
		}
	}
}

// TestParseDropsCyclicJob: jobs whose dependency lists form a cycle — here
// a 2-cycle and a 3-cycle, each between two good jobs — are dropped, and
// the good jobs keep their order and stages.
func TestParseDropsCyclicJob(t *testing.T) {
	src := "M1,1,good_a,b,T,0,10,1,1\nR2_1,1,good_a,b,T,10,20,1,1\n" +
		"R1_2,1,two,b,T,0,10,1,1\nR2_1,1,two,b,T,0,10,1,1\n" +
		"M1,1,good_b,b,T,5,8,1,1\n" +
		"R1_3,1,three,b,T,0,10,1,1\nR2_1,1,three,b,T,0,10,1,1\nR3_2,1,three,b,T,0,10,1,1\n" +
		"M1,1,good_c,b,T,7,9,1,1\nM2,1,good_c,b,T,7,9,1,1\nR3_1_2,1,good_c,b,T,9,12,1,1\n"
	tr, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, j := range tr.Jobs {
		names = append(names, j.Name)
	}
	if want := []string{"good_a", "good_b", "good_c"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("kept jobs %v, want %v", names, want)
	}
	if got := tr.Jobs[2].Stages[2].Parents; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("good_c stage 3 parents = %v, want [1 2]", got)
	}
}
