package trace

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// splitTaskName is the strings.Split decoder the task-name scanner
// replaced, kept as FuzzParseTaskName's differential oracle.
func splitTaskName(name string) (id int, parents []int, ok bool) {
	i := 0
	for i < len(name) && (name[i] < '0' || name[i] > '9') {
		i++
	}
	if i == 0 || i >= len(name) || strings.Contains(name[:i], "_") {
		return 0, nil, false
	}
	parts := strings.Split(name[i:], "_")
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, nil, false
	}
	for _, p := range parts[1:] {
		v, err := strconv.Atoi(p)
		if err != nil {
			return 0, nil, false
		}
		parents = append(parents, v)
	}
	return id, parents, true
}

// FuzzParseTaskName: the dependency-grammar decoder must never panic, must
// leave dst untouched and return id 0 for a name it rejects, and must
// agree with the Split-based oracle on the verdict, the id and the parents
// of every name.
func FuzzParseTaskName(f *testing.F) {
	for _, seed := range []string{"M1", "R3_1_2", "task_123", "", "M", "J10_4",
		"MergeTask", "M1_x", "M999999999999999999999", "_1", "M1_", "a1_2_3_4_5",
		"M3_1_x", "R2_2", "R2_2_", "M1x2", "M__1", "M0_0", "R4_-1_+1", "M1_2__3"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		dst := []int{7}
		id, got, ok := scanTaskName(name, dst)
		if !ok && (id != 0 || !slices.Equal(got, dst)) {
			t.Fatalf("%q: rejected name must return 0 and dst as it came: %d %v", name, id, got)
		}
		wantID, wantParents, wantOK := splitTaskName(name)
		if ok != wantOK {
			t.Fatalf("%q: ok %v, oracle %v", name, ok, wantOK)
		}
		if ok && (id != wantID || !slices.Equal(got[1:], wantParents)) {
			t.Fatalf("%q: decoded %d %v, oracle %d %v", name, id, got[1:], wantID, wantParents)
		}
	})
}

// FuzzParse: arbitrary CSV input must either parse into a well-formed
// trace or return an error — never panic, never emit a cyclic job or a
// self-dependency — and a job is dropped only if its graph, as assembled,
// fails to build.
func FuzzParse(f *testing.F) {
	f.Add("M1,1,j,b,T,0,10,1,1\n")
	f.Add(sampleCSV)
	f.Add("R2_9,1,j,b,T,0,10,1,1\nM1,2,j,b,T,x,y,1,1\n")
	f.Add(",,,,,,,\n")
	f.Add("M3_1_x,1,j,b,T,0,10,1,1\n")             // malformed dependency token
	f.Add("R2_2_1,1,j,b,T,0,10,1,1\n")             // self-dependency
	f.Add("M1,1,short\nM2,1,j,b,T,5,9,1,1\n")      // truncated row
	f.Add(",1,j,b,T,0,5,1,1\nM5,1,,b,T,0,5,1,1\n") // empty names
	f.Add("R1_2,1,c,b,T,0,1,1,1\nR2_1,1,c,b,T,0,1,1,1\nM1,1,g,b,T,0,1,1,1\n" +
		"R1_3,1,d,b,T,0,1,1,1\nR2_1,1,d,b,T,0,1,1,1\nR3_2,1,d,b,T,0,1,1,1\n") // cyclic jobs
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := parse(strings.NewReader(src), func(j *Job) {
			if _, err := j.Graph(); err == nil {
				t.Fatalf("job %q dropped although its graph builds", j.Name)
			}
		})
		if err != nil {
			return
		}
		for i := range tr.Jobs {
			if _, err := tr.Jobs[i].Graph(); err != nil {
				t.Fatalf("Parse emitted an invalid job %q: %v", tr.Jobs[i].Name, err)
			}
			for _, s := range tr.Jobs[i].Stages {
				for _, p := range s.Parents {
					if p == s.ID {
						t.Fatalf("job %q stage %d kept a self-dependency", tr.Jobs[i].Name, s.ID)
					}
				}
			}
		}
	})
}
