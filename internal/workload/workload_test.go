package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
)

func ref30() *cluster.Cluster { return cluster.NewM4LargeCluster(30) }

func TestPaperWorkloadsValidate(t *testing.T) {
	for name, j := range PaperWorkloads(ref30(), 1.0) {
		if err := j.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestWorkloadStageCountsMatchPaper(t *testing.T) {
	ref := ref30()
	cases := []struct {
		job  *Job
		want int
	}{
		{ALS(ref, 1), 6},
		{ConnectedComponents(ref, 1), 5},
		{CosineSimilarity(ref, 1), 5},
		{LDA(ref, 1), 5},
		{TriangleCount(ref, 1), 11},
	}
	for _, c := range cases {
		if got := c.job.Graph.Len(); got != c.want {
			t.Errorf("%s: %d stages, want %d (Table 2)", c.job.Name, got, c.want)
		}
	}
}

func TestALSParallelSetMatchesFig1(t *testing.T) {
	j := ALS(cluster.NewM4LargeCluster(3), 1)
	r, err := dag.NewReachability(j.Graph)
	if err != nil {
		t.Fatal(err)
	}
	k := dag.ParallelStages(j.Graph, r)
	want := map[dag.StageID]bool{1: true, 2: true, 3: true, 4: true}
	if len(k) != len(want) {
		t.Fatalf("ALS K = %v, want {1,2,3,4}", k)
	}
	for _, id := range k {
		if !want[id] {
			t.Errorf("unexpected %d in ALS K", id)
		}
	}
	// Fig. 1: Stage 3 is parallel with 1, 2 and 4.
	for _, other := range []dag.StageID{1, 2, 4} {
		if r.Reaches(3, other) || r.Reaches(other, 3) {
			t.Errorf("stage 3 must be concurrent with %d", other)
		}
	}
}

func TestCosinePathStructure(t *testing.T) {
	j := CosineSimilarity(ref30(), 1)
	r, _ := dag.NewReachability(j.Graph)
	paths := dag.ExecutionPaths(j.Graph, r, nil)
	if len(paths) != 2 {
		t.Fatalf("Cosine paths = %v, want 2 chains", paths)
	}
}

func TestLDAPathStructureMatchesFig11(t *testing.T) {
	j := LDA(ref30(), 1)
	r, _ := dag.NewReachability(j.Graph)
	paths := dag.ExecutionPaths(j.Graph, r, nil)
	// Fig. 11: paths {1}, {2,3}, {4}; stage 5 sequential.
	if len(paths) != 3 {
		t.Fatalf("LDA paths = %v, want 3", paths)
	}
	lens := map[int]int{}
	for _, p := range paths {
		lens[len(p.Stages)]++
		for _, s := range p.Stages {
			if s == 5 {
				t.Error("stage 5 is sequential; must not be in any path")
			}
		}
	}
	if lens[1] != 2 || lens[2] != 1 {
		t.Fatalf("LDA path lengths = %v, want two singletons and one pair", lens)
	}
}

func TestConnectedComponentsSequentialTail(t *testing.T) {
	j := ConnectedComponents(ref30(), 1)
	r, _ := dag.NewReachability(j.Graph)
	// Stages 4 and 5 are sequential (the paper: "no stages running in
	// parallel with Stage 4").
	for _, id := range []dag.StageID{4, 5} {
		if d := r.ConcurrencyDegree(id); d != 0 {
			t.Errorf("stage %d concurrency degree = %d, want 0", id, d)
		}
	}
}

func TestLDAHomogeneous(t *testing.T) {
	j := LDA(ref30(), 1)
	for id, p := range j.Profiles {
		if p.Skew > 0.1 {
			t.Errorf("LDA stage %d skew %v; LDA must be near-homogeneous", id, p.Skew)
		}
	}
	tri := TriangleCount(ref30(), 1)
	for id, p := range tri.Profiles {
		if p.Skew < 0.3 {
			t.Errorf("TriangleCount stage %d skew %v; graph data should be skewed", id, p.Skew)
		}
	}
}

func TestFromPhasesRoundTrip(t *testing.T) {
	ref := ref30()
	ps := PhaseSpec{ReadSec: 100, ComputeSec: 150, WriteSec: 20, Skew: 0.3}
	p := FromPhases(ref, ps)
	n := float64(len(ref.Nodes))
	perNodeNet := ref.TotalNetBW() / n
	perNodeDisk := ref.TotalDiskBW() / n
	execPerNode := float64(ref.TotalExecutors()) / n

	gotRead := (float64(p.ShuffleIn) / n) / perNodeNet
	if math.Abs(gotRead-100) > 0.5 {
		t.Errorf("solo read = %v, want 100", gotRead)
	}
	gotCompute := (float64(p.ShuffleIn) / n) / (execPerNode * p.ProcRate)
	if math.Abs(gotCompute-150) > 0.5 {
		t.Errorf("solo compute = %v, want 150", gotCompute)
	}
	gotWrite := (float64(p.ShuffleOut) / n) / perNodeDisk
	if math.Abs(gotWrite-20) > 0.5 {
		t.Errorf("solo write = %v, want 20", gotWrite)
	}
}

func TestFromPhasesZeroCompute(t *testing.T) {
	p := FromPhases(ref30(), PhaseSpec{ReadSec: 10, ComputeSec: 0, WriteSec: 1})
	if err := p.Validate(); err != nil {
		t.Fatalf("zero-compute profile invalid: %v", err)
	}
}

func TestFromPhasesPureCompute(t *testing.T) {
	ref := ref30()
	p := FromPhases(ref, PhaseSpec{ReadSec: 0, ComputeSec: 60, WriteSec: 0})
	if err := p.Validate(); err != nil {
		t.Fatalf("pure-compute profile invalid: %v", err)
	}
	if p.ShuffleIn == 0 {
		t.Fatal("pure-compute stage needs nominal input volume")
	}
	n := float64(len(ref.Nodes))
	execPerNode := float64(ref.TotalExecutors()) / n
	gotCompute := (float64(p.ShuffleIn) / n) / (execPerNode * p.ProcRate)
	if math.Abs(gotCompute-60) > 0.5 {
		t.Errorf("solo compute = %v, want 60", gotCompute)
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []StageProfile{
		{ShuffleIn: -1, ProcRate: 1},
		{ShuffleOut: -1, ProcRate: 1},
		{ProcRate: 0},
		{ProcRate: 1, Skew: 1.5},
		{ProcRate: 1, Tasks: -3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile passed validation: %+v", i, p)
		}
	}
	good := StageProfile{ShuffleIn: 1, ShuffleOut: 1, ProcRate: 1, Skew: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestJobValidateMissingProfile(t *testing.T) {
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	j := &Job{Name: "x", Graph: g, Profiles: map[dag.StageID]StageProfile{}}
	if err := j.Validate(); err == nil {
		t.Fatal("missing profile must fail validation")
	}
}

func TestJobValidateOrphanProfile(t *testing.T) {
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	j := &Job{Name: "x", Graph: g, Profiles: map[dag.StageID]StageProfile{
		1: {ProcRate: 1}, 99: {ProcRate: 1},
	}}
	if err := j.Validate(); err == nil {
		t.Fatal("profile for unknown stage must fail validation")
	}
}

func TestJobCloneIndependent(t *testing.T) {
	j := LDA(ref30(), 1)
	c := j.Clone()
	p := c.Profiles[1]
	p.ShuffleIn *= 2
	c.Profiles[1] = p
	if j.Profiles[1].ShuffleIn == c.Profiles[1].ShuffleIn {
		t.Fatal("clone shares profile storage")
	}
}

func TestRandomJobProperties(t *testing.T) {
	ref := ref30()
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 1
		rng := rand.New(rand.NewSource(seed))
		j := RandomJob("rand", ref, n, rng)
		if err := j.Validate(); err != nil {
			return false
		}
		return j.Graph.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomJobDeterministic(t *testing.T) {
	ref := ref30()
	a := RandomJob("a", ref, 20, rand.New(rand.NewSource(7)))
	b := RandomJob("b", ref, 20, rand.New(rand.NewSource(7)))
	for _, id := range a.Graph.Stages() {
		if a.Profiles[id] != b.Profiles[id] {
			t.Fatal("same seed must give identical profiles")
		}
	}
}

func TestRandomJobRuntimeRange(t *testing.T) {
	// Solo stage runtimes must span the paper's observed 10 s – 3,000 s.
	ref := ref30()
	rng := rand.New(rand.NewSource(3))
	minT, maxT := math.Inf(1), 0.0
	for i := 0; i < 50; i++ {
		j := RandomJob("r", ref, 10, rng)
		n := float64(len(ref.Nodes))
		perNodeNet := ref.TotalNetBW() / n
		perNodeDisk := ref.TotalDiskBW() / n
		execPerNode := float64(ref.TotalExecutors()) / n
		for _, p := range j.Profiles {
			t0 := (float64(p.ShuffleIn)/n)/perNodeNet +
				(float64(p.ShuffleIn)/n)/(execPerNode*p.ProcRate) +
				(float64(p.ShuffleOut)/n)/perNodeDisk
			minT = math.Min(minT, t0)
			maxT = math.Max(maxT, t0)
		}
	}
	if minT < 5 || maxT > 6000 {
		t.Fatalf("solo stage runtimes [%v, %v] outside plausible range", minT, maxT)
	}
	if maxT < 500 {
		t.Fatalf("max solo runtime %v too small; want long-tail stages", maxT)
	}
}
