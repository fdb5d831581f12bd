package trace

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// splitTaskName is the strings.Split decoder the task-name scanner
// replaced, kept as FuzzParseTaskName's differential oracle.
func splitTaskName(name string) (id int, parents []int, class NameClass) {
	i := 0
	for i < len(name) && (name[i] < '0' || name[i] > '9') {
		i++
	}
	if i == 0 || i >= len(name) || strings.Contains(name[:i], "_") {
		return 0, nil, NameUnstructured
	}
	parts := strings.Split(name[i:], "_")
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, nil, NameUnstructured
	}
	for _, p := range parts[1:] {
		v, err := strconv.Atoi(p)
		if err != nil {
			return 0, nil, NameMalformed
		}
		parents = append(parents, v)
	}
	return id, parents, NameStructured
}

// FuzzParseTaskName: the dependency-grammar decoder must never panic, must
// keep its invariants (ok agrees with ClassifyTaskName; a not-ok result is
// zero), and must agree with the Split-based oracle on the id, the parents
// and the class of every name.
func FuzzParseTaskName(f *testing.F) {
	for _, seed := range []string{"M1", "R3_1_2", "task_123", "", "M", "J10_4",
		"MergeTask", "M1_x", "M999999999999999999999", "_1", "M1_", "a1_2_3_4_5",
		"M3_1_x", "R2_2", "R2_2_", "M1x2", "M__1", "M0_0", "R4_-1_+1", "M1_2__3"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		id, parents, ok := ParseTaskName(name)
		class := ClassifyTaskName(name)
		if ok != (class == NameStructured) {
			t.Fatalf("%q: ParseTaskName ok=%v disagrees with ClassifyTaskName %v", name, ok, class)
		}
		if !ok && (id != 0 || parents != nil) {
			t.Fatalf("not-ok result must be zero: %d %v", id, parents)
		}
		wantID, wantParents, wantClass := splitTaskName(name)
		if class != wantClass {
			t.Fatalf("%q: class %v, oracle %v", name, class, wantClass)
		}
		if !ok {
			wantParents = nil
		}
		if id != wantID || !reflect.DeepEqual(parents, wantParents) {
			t.Fatalf("%q: decoded %d %v, oracle %d %v", name, id, parents, wantID, wantParents)
		}
	})
}

// FuzzParse: arbitrary CSV input must either parse into a well-formed
// trace or return an error — never panic, never emit a cyclic job. The
// lenient parser must additionally keep its books straight: skipped rows
// decompose exactly into the three skip reasons and never exceed the rows
// read, and a job is dropped only if its graph, as assembled, fails to
// build.
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
		tr, err := Parse(strings.NewReader(src))
		if err == nil {
			for i := range tr.Jobs {
				if _, err := tr.Jobs[i].Graph(); err != nil {
					t.Fatalf("Parse emitted an invalid job %q: %v", tr.Jobs[i].Name, err)
				}
			}
		}
		drops := 0
		ltr, stats, err := parse(strings.NewReader(src), false, func(j *Job) {
			drops++
			if _, err := j.Graph(); err == nil {
				t.Fatalf("job %q dropped although its graph builds", j.Name)
			}
		})
		if err != nil {
			return // only CSV-level read errors abort the lenient parser
		}
		if drops != stats.DroppedJobs {
			t.Fatalf("%d jobs dropped, DroppedJobs = %d", drops, stats.DroppedJobs)
		}
		if stats.SkippedRows != stats.ShortRows+stats.EmptyFields+stats.MalformedTimes {
			t.Fatalf("skip accounting broken: %+v", stats)
		}
		if stats.SkippedRows > stats.Rows {
			t.Fatalf("skipped %d of %d rows", stats.SkippedRows, stats.Rows)
		}
		for i := range ltr.Jobs {
			if _, err := ltr.Jobs[i].Graph(); err != nil {
				t.Fatalf("ParseWithStats emitted an invalid job %q: %v", ltr.Jobs[i].Name, err)
			}
			for _, s := range ltr.Jobs[i].Stages {
				for _, p := range s.Parents {
					if p == s.ID {
						t.Fatalf("job %q stage %d kept a self-dependency", ltr.Jobs[i].Name, s.ID)
					}
				}
			}
		}
	})
}
