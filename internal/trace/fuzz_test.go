package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"delaystage/internal/dag"
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
		id, got, ok := scanTaskName([]byte(name), dst)
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

// parseCSV is the encoding/csv parser the byte-level row scanner
// replaced, kept as FuzzParseMatchesCSV's differential oracle: every row
// goes through csv.Reader, and each job's rows are renumbered,
// deduplicated and checked for a cycle as Parse documents.
func parseCSV(r io.Reader, dropped func(*Job)) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	var jobs []Job
	index := map[string]int{}
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if len(rec) < 7 {
			return nil, fmt.Errorf("trace: row %d: record has %d fields, want ≥7", row, len(rec))
		}
		name, jobName := rec[0], rec[2]
		start, err1 := strconv.ParseFloat(rec[5], 64)
		end, err2 := strconv.ParseFloat(rec[6], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("trace: row %d: bad times %q/%q in job %s", row, rec[5], rec[6], jobName)
		}
		k, seen := index[jobName]
		if !seen {
			k = len(jobs)
			index[jobName] = k
			jobs = append(jobs, Job{Name: jobName})
		}
		id, parents, ok := splitTaskName(name)
		st := Stage{ID: id, Start: start, End: end}
		switch {
		case !ok:
			st.ID = -1
		case len(parents) > 0:
			st.Parents = []int{}
			for _, p := range parents {
				if p != id {
					st.Parents = append(st.Parents, p)
				}
			}
		}
		jobs[k].Stages = append(jobs[k].Stages, st)
	}
	tr := &Trace{}
	for k := range jobs {
		job := &jobs[k]
		maxID := 0
		for _, s := range job.Stages {
			maxID = max(maxID, s.ID)
		}
		pos := map[int]int{}
		var kept []Stage
		for _, st := range job.Stages {
			if st.ID < 0 {
				maxID++
				st.ID = maxID
			}
			if _, seen := pos[st.ID]; seen {
				continue
			}
			pos[st.ID] = len(kept)
			if len(kept) == 0 || st.Start < job.Arrival {
				job.Arrival = st.Start
			}
			kept = append(kept, st)
		}
		job.Stages = kept
		parents := make([][]int, len(kept))
		for i, s := range kept {
			for _, p := range s.Parents {
				if q, ok := pos[p]; ok {
					parents[i] = append(parents[i], q)
				}
			}
		}
		if !dag.Acyclic(parents) {
			if dropped != nil {
				dropped(job)
			}
			continue
		}
		tr.Jobs = append(tr.Jobs, *job)
	}
	return tr, nil
}

// FuzzParseMatchesCSV: the byte-level scanner, its encoding/csv fallback
// and the per-job assembly must agree with parseCSV on every input:
// the same jobs (names, arrivals, stages, parents) and the same dropped
// cyclic jobs, or byte-identical error texts.
func FuzzParseMatchesCSV(f *testing.F) {
	long := "M1,1,j," + strings.Repeat("x", 5000) + ",T,0,10,1,1\nM2_1,1,j,b,T,1,2,1,1\n"
	for _, seed := range []string{
		sampleCSV,
		"M1,1,\"job,a\",b,T,0,10,1,1\nR2_1,1,\"job,a\",b,T,3,9,1,1\n", // quoted commas
		"M1,1,j,\"multi\nline\",T,0,10,1,1\nM2_1,1,j,b,T,1,2,1,1\n",   // quoted newline
		"M1,1,j,b,T,0,10,1,1\r\nR2_1,1,j,b,T,1,2,1,1\r\n",             // CRLF
		"M1,1,j,b\rx,T,0,10,1,1\nM2,1,j,b,T,1,2,1,1\n",                // bare \r in a field
		"\nM1,1,j,b,T,0,10,1,1\n\n\nM2_1,1,j,b,T,1,2,1,1\n\n",         // blank lines
		"M1,1,j,b,T,0,10,1,1\nM2_1,1,k,b,T,1,2,1,1",                   // no final newline
		"M1,1,j,b,T,0,10,1,1\n\nM2,1,j,b\"x,T,0,1,1,1\n",              // bare quote on line 3
		"M1,1,j,b,T,0,10,1,1\nM2,1,j,\"b\n\"x,T,0,1,1,1\n",            // error after a quoted newline
		long, // row longer than the buffer
		"M1,1,j,b,T,0,10,1,1\nM1,1,k,b,T,0,1,1,1\nR2_1,1,j,b,T,2,4,1,1\n", // interleaved jobs
		"M1,1,short\n", "M1,1,j,b,T,x,1,1,1\n", "\"unterminated\n", "\r", "\r\n\r\n",
		"R1_2,1,c,b,T,0,1,1,1\nR2_1,1,c,b,T,0,1,1,1\nM1,1,g,b,T,0,1,1,1\n", // cyclic job
		"M9223372036854775807,1,j,b,T,0,1,1,1\nx,1,j,b,T,0,1,1,1\ny,1,j,b,T,0,1,1,1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var gotDrop, wantDrop []Job
		got, err := parse(strings.NewReader(src), func(j *Job) { gotDrop = append(gotDrop, *j) })
		want, wantErr := parseCSV(strings.NewReader(src), func(j *Job) { wantDrop = append(wantDrop, *j) })
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("errors differ:\n got  %v\n want %v", err, wantErr)
			}
			return
		}
		if !sameJobs(got.Jobs, want.Jobs) || !sameJobs(gotDrop, wantDrop) {
			t.Fatalf("traces differ:\n got  %+v dropped %+v\n want %+v dropped %+v", got.Jobs, gotDrop, want.Jobs, wantDrop)
		}
	})
}

// sameJobs compares jobs field by field: times bit for bit (a NaN time
// parses), an empty parent list equal to none.
func sameJobs(a, b []Job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !sameBits(a[i].Arrival, b[i].Arrival) || len(a[i].Stages) != len(b[i].Stages) {
			return false
		}
		for k, s := range a[i].Stages {
			w := b[i].Stages[k]
			if s.ID != w.ID || !sameBits(s.Start, w.Start) || !sameBits(s.End, w.End) || !slices.Equal(s.Parents, w.Parents) {
				return false
			}
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
