package jobspec

import (
	"bytes"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

const sampleJSON = `{
  "name": "sample",
  "stages": [
    {"id": 1, "name": "loadA", "phases": {"read_sec": 60, "compute_sec": 50, "write_sec": 5}},
    {"id": 2, "parents": [1], "phases": {"read_sec": 40, "compute_sec": 60, "write_sec": 5, "skew": 0.4}},
    {"id": 3, "resources": {"shuffle_in_bytes": 1048576, "shuffle_out_bytes": 1024, "proc_rate_bps": 1048576}},
    {"id": 4, "parents": [2, 3], "phases": {"read_sec": 30, "compute_sec": 40, "write_sec": 5}}
  ]
}`

func TestParseAndMaterialize(t *testing.T) {
	s, err := Parse(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "sample" || len(s.Stages) != 4 {
		t.Fatalf("spec = %+v", s)
	}
	c := cluster.NewM4LargeCluster(10)
	j, err := s.Job(c)
	if err != nil {
		t.Fatal(err)
	}
	if j.Graph.Len() != 4 {
		t.Fatalf("job has %d stages", j.Graph.Len())
	}
	if got := j.Profiles[3].ShuffleIn; got != 1048576 {
		t.Fatalf("resource stage shuffle-in %d", got)
	}
	// The phase-specified stage must match workload.FromPhases.
	want := workload.FromPhases(c, workload.PhaseSpec{ReadSec: 60, ComputeSec: 50, WriteSec: 5})
	if j.Profiles[1] != want {
		t.Fatalf("phase stage profile %+v, want %+v", j.Profiles[1], want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`{}`,                      // no stages
		`{"stages": [{"id": 1}]}`, // neither view
		`{"stages": [{"id": 1, "phases": {}, "resources": {}}]}`,             // both views
		`{"stages": [{"id": 1, "phases": {}}, {"id": 1, "phases": {}}]}`,     // dup id
		`{"stages": [{"id": 1, "parents": [9], "phases": {"read_sec": 1}}]}`, // bad parent
		`{"stages": [{"id": 1, "phases": {"read_sec": 1}, "bogus": true}]}`,  // unknown field
		`not json`,
		`{"stages": [{"id": 1, "phases": {"read_sec": 1}}], "Stages": [{"id": 2}]}`, // duplicate key
		`{"stages": [{"id": 1, "phases": {"read_sec": 1}, "phases": {}}]}`,          // duplicate key
		`{"stages": [{"id": 1, "phases": {"read_sec": 1}}]} {}`,                     // trailing data
	}
	for i, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error for %s", i, src)
		}
	}
}

func TestRoundTripFromJob(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	orig := workload.LDA(c, 0.5)
	spec := FromJob(orig)
	var buf bytes.Buffer
	if err := spec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	j, err := back.Job(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range orig.Graph.Stages() {
		if orig.Profiles[id] != j.Profiles[id] {
			t.Fatalf("stage %d profile changed: %+v vs %+v", id, orig.Profiles[id], j.Profiles[id])
		}
		op, np := orig.Graph.Parents(id), j.Graph.Parents(id)
		if len(op) != len(np) {
			t.Fatalf("stage %d parents changed", id)
		}
	}
}

func TestJobSpecCyclic(t *testing.T) {
	src := `{"stages": [
      {"id": 1, "parents": [2], "phases": {"read_sec": 1, "compute_sec": 1}},
      {"id": 2, "parents": [1], "phases": {"read_sec": 1, "compute_sec": 1}}]}`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err) // referential integrity is fine; cycle caught at Job()
	}
	if _, err := s.Job(cluster.NewM4LargeCluster(3)); err == nil {
		t.Fatal("cyclic spec must fail materialization")
	}
}

func TestDOT(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	j := workload.CosineSimilarity(c, 0.5)
	sched, err := core.Compute(core.Options{Cluster: c}, j)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DOT(j, sched.Delays)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "s1 ->", "lightblue", "rankdir=LR"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Delayed stages must be visually annotated.
	if len(sched.Delays) > 0 && !strings.Contains(out, "peripheries=2") {
		t.Error("delayed stages not annotated")
	}
	// Undelayed rendering works too.
	if _, err := DOT(j, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path.json"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestDOTDeterministic(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	j := workload.LDA(c, 0.2)
	a, _ := DOT(j, nil)
	b, _ := DOT(j, nil)
	if a != b {
		t.Fatal("DOT output must be deterministic")
	}
	_ = dag.StageID(0)
}
