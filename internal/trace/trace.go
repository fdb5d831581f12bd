// Package trace provides the Alibaba cluster-trace v2018 substrate of the
// paper's Sec. 5.3: a parser for the batch_task CSV format (with its
// "M3_1_2"-style dependency-encoding task names), a deterministic
// synthetic-trace generator calibrated to every statistic the paper
// reports about the real trace, per-job DAG reconstruction, and the
// trace analyses behind Figs. 2 and 3.
//
// The real 2.7M-job trace is not redistributable, so experiments run on
// generated traces; the parser exists so real trace files drop in
// unchanged.
package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"delaystage/internal/dag"
)

// Stage is one stage (Alibaba "task") of a traced job. Times are seconds
// relative to the trace origin.
type Stage struct {
	ID      int
	Parents []int
	Start   float64
	End     float64
}

// Duration returns the stage runtime.
func (s Stage) Duration() float64 { return s.End - s.Start }

// Job is one traced job: its stages plus the job arrival time.
type Job struct {
	Name    string
	Arrival float64
	Stages  []Stage
}

// Trace is a set of jobs.
type Trace struct {
	Jobs []Job
}

// Graph reconstructs the job's stage DAG. Dangling parent references
// (present in the real trace) are dropped. Each call builds a fresh graph:
// parsed jobs keep no graph resident.
func (j *Job) Graph() (*dag.Graph, error) {
	sc := scratchPool.Get().(*jobScratch)
	defer scratchPool.Put(sc)
	maxID := 0
	for _, s := range j.Stages {
		maxID = max(maxID, s.ID)
	}
	sc.pos.reset(len(j.Stages), maxID)
	sc.ids = sc.ids[:0]
	for i, s := range j.Stages {
		sc.pos.add(s.ID, i)
		sc.ids = append(sc.ids, dag.StageID(s.ID))
	}
	g, err := dag.Build(sc.ids, sc.link(j.Stages))
	if err != nil {
		return nil, fmt.Errorf("trace job %s: %w", j.Name, err)
	}
	return g, nil
}

// scratchPool holds Job.Graph's scratch, so that building a graph
// allocates only the graph.
var scratchPool = sync.Pool{New: func() any { return new(jobScratch) }}

// jobScratch is one job's working state, reused job after job: the stage
// ID → position table, and the job's parent positions.
type jobScratch struct {
	pos     posTable
	ids     []dag.StageID
	back    []int
	parents [][]int
}

// link resolves each stage's parents to positions through pos, which
// must hold the stages' IDs, dropping dangling and self references: the
// edges Job.Graph keeps. It returns one list per stage, all slices of one
// reused array.
func (sc *jobScratch) link(stages []Stage) [][]int {
	edges := 0
	for _, s := range stages {
		edges += len(s.Parents)
	}
	if cap(sc.back) < edges {
		sc.back = make([]int, 0, edges)
	}
	back := sc.back[:0]
	sc.parents = sc.parents[:0]
	for _, s := range stages {
		lo := len(back)
		for _, p := range s.Parents {
			if q, ok := sc.pos.get(p); ok && p != s.ID {
				back = append(back, q)
			}
		}
		sc.parents = append(sc.parents, back[lo:len(back):len(back)])
	}
	return sc.parents
}

// posTable maps one job's stage IDs to their positions: a dense slice for
// small non-negative IDs, as trace IDs are, and a map only for the
// sparse or negative rest.
type posTable struct {
	dense  []int // ID → position+1 for IDs below len(dense); 0 = absent
	sparse map[int]int
}

// reset empties the table for a job of n stages whose IDs mostly lie in
// [0, maxID]; the dense part stops at 4n+64 so that its clearing stays
// linear in the job.
func (t *posTable) reset(n, maxID int) {
	size := max(min(maxID+1, 4*n+64), 0)
	if cap(t.dense) < size {
		t.dense = make([]int, size)
	} else {
		t.dense = t.dense[:size]
		clear(t.dense)
	}
	if len(t.sparse) > 0 {
		clear(t.sparse)
	}
}

// add records id at pos and reports true, or reports false if id is
// already present.
func (t *posTable) add(id, pos int) bool {
	if uint(id) < uint(len(t.dense)) {
		if t.dense[id] != 0 {
			return false
		}
		t.dense[id] = pos + 1
		return true
	}
	if _, ok := t.sparse[id]; ok {
		return false
	}
	if t.sparse == nil {
		t.sparse = map[int]int{}
	}
	t.sparse[id] = pos
	return true
}

// get returns id's position.
func (t *posTable) get(id int) (int, bool) {
	if uint(id) < uint(len(t.dense)) {
		p := t.dense[id]
		return p - 1, p != 0
	}
	p, ok := t.sparse[id]
	return p, ok
}

// scanTaskName decodes the Alibaba task-name dependency grammar: a letter
// prefix, the stage's own number, then underscore-separated parent
// numbers — e.g. "M1" (stage 1, no parents), "R3_1_2" (stage 3 depends on
// stages 1 and 2). It appends a structured name's parent numbers to dst
// and returns the extended slice with ok set. Any other name — one without
// that structure ("task_...", "MergeTask", ...) or one that breaks it
// mid-way ("M3_1_x", "M1_") — returns id 0, dst as it came and ok false,
// and its task is treated as an independent stage.
func scanTaskName(name []byte, dst []int) (id int, _ []int, ok bool) {
	i := 0
	for i < len(name) && (name[i] < '0' || name[i] > '9') {
		i++
	}
	// Reject the "task_1234" style: prefix containing '_' is unstructured.
	if i == 0 || i >= len(name) || bytes.IndexByte(name[:i], '_') >= 0 {
		return 0, dst, false
	}
	n := len(dst)
	rest := name[i:]
	for first := true; ; first = false {
		tok := rest
		j := bytes.IndexByte(rest, '_')
		if j >= 0 {
			tok, rest = rest[:j], rest[j+1:]
		}
		v, err := strconv.Atoi(string(tok))
		if err != nil {
			return 0, dst[:n], false
		}
		if first {
			id = v
		} else {
			dst = append(dst, v)
		}
		if j < 0 {
			return id, dst, true
		}
	}
}

// Parse reads a batch_task.csv stream (columns: task_name, instance_num,
// job_name, task_type, status, start_time, end_time, plan_cpu, plan_mem)
// and assembles jobs. Tasks whose names do not decode under the
// dependency grammar get synthetic stage IDs (they continue after the max
// structured ID). A stage listing itself as a parent loses that edge, and
// a repeated (job, stage) row is collapsed into the first. Jobs with zero
// or negative stage durations keep them (the analyses clamp); jobs whose
// DAG turns out cyclic are dropped. A truncated row or a non-numeric
// timestamp aborts with a row-numbered error.
func Parse(r io.Reader) (*Trace, error) { return parse(r, nil) }

// parentChunk is the length of the shared arrays that hold the parsed
// parent lists, so a row's list costs no allocation of its own.
const parentChunk = 4096

// parse reads the rows with a byte-level scanner: a row with no '"' and
// no '\r' is split on commas inside the reader's buffer, so it costs no
// string of its own. From the first row that holds either byte, or is
// longer than the buffer, the rest of the stream goes to encoding/csv,
// whose quoting, line-ending and error rules the fast path matches on
// the rows it takes. Jobs are then assembled one by one, each into one
// []Stage, and each job's DAG is checked by one Kahn pass without
// building a dag.Graph. dropped, if non-nil, sees every job removed as
// cyclic; the job it is handed is valid only during the call.
func parse(r io.Reader, dropped func(*Job)) (*Trace, error) {
	a := assembler{index: map[string]int{}, last: -1}
	br := bufio.NewReader(r)
	// row counts records, as the errors number them; lines counts every
	// line read, blank ones included, as encoding/csv's errors do.
	row, lines := 0, 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err == bufio.ErrBufferFull || bytes.IndexByte(line, '"') >= 0 || bytes.IndexByte(line, '\r') >= 0 {
			rest := io.MultiReader(bytes.NewReader(bytes.Clone(line)), br)
			if err := a.readCSV(rest, row, lines); err != nil {
				return nil, err
			}
			break
		}
		if len(line) == 0 {
			break
		}
		lines++
		if line[0] != '\n' { // encoding/csv skips blank lines
			row++
			if err := a.addLine(row, bytes.TrimSuffix(line, []byte{'\n'})); err != nil {
				return nil, err
			}
		}
		if err == io.EOF {
			break
		}
	}
	a.flush()
	// The kept jobs close ranks in place.
	tr := &Trace{Jobs: a.jobs[:0]}
	var sc jobScratch
	var cc dag.CycleCheck
	for k := range a.jobs {
		job := &a.jobs[k]
		if !settle(job, &sc, &cc) {
			if dropped != nil {
				dropped(job)
			}
			continue // drop cyclic jobs, as the paper excludes incomplete ones
		}
		tr.Jobs = append(tr.Jobs, *job)
	}
	return tr, nil
}

// assembler collects the parsed rows into jobs, in order of first
// appearance. A job's rows gather in cur while they arrive back to back,
// and move into the job's own []Stage — one exact-size allocation for a
// job whose rows are contiguous — when another job's row comes. A row
// whose name does not decode holds ID -1 (structured IDs are never
// negative) until settle gives it a synthetic one.
type assembler struct {
	jobs  []Job
	index map[string]int
	last  int // the job of the previous row, or -1
	cur   []Stage
	arena []int // the rows' parent lists
}

// addLine splits one fast-path row on commas and adds it.
func (a *assembler) addLine(row int, line []byte) error {
	var f [7][]byte
	n := 0
	for {
		i := bytes.IndexByte(line, ',')
		field := line
		if i >= 0 {
			field, line = line[:i], line[i+1:]
		}
		if n < len(f) {
			f[n] = field
		}
		n++
		if i < 0 {
			break
		}
	}
	if n < 7 {
		return fmt.Errorf("trace: row %d: record has %d fields, want ≥7", row, n)
	}
	return a.add(row, f[0], f[2], f[5], f[6])
}

// readCSV reads the rest of the stream with encoding/csv, numbering rows
// after row and shifting its errors' line numbers past the lines already
// read.
func (a *assembler) readCSV(r io.Reader, row, lines int) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	var buf []byte
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				pe.StartLine += lines
				pe.Line += lines
			}
			return fmt.Errorf("trace: %w", err)
		}
		row++
		if len(rec) < 7 {
			return fmt.Errorf("trace: row %d: record has %d fields, want ≥7", row, len(rec))
		}
		// add takes bytes: copy the four fields it reads into one buffer.
		buf = append(buf[:0], rec[0]...)
		job := len(buf)
		buf = append(buf, rec[2]...)
		t0 := len(buf)
		buf = append(buf, rec[5]...)
		t1 := len(buf)
		buf = append(buf, rec[6]...)
		if err := a.add(row, buf[:job], buf[job:t0], buf[t0:t1], buf[t1:]); err != nil {
			return err
		}
	}
}

// add appends one row's stage to its job.
func (a *assembler) add(row int, name, jobName, t0, t1 []byte) error {
	start, err1 := strconv.ParseFloat(string(t0), 64)
	end, err2 := strconv.ParseFloat(string(t1), 64)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("trace: row %d: bad times %q/%q in job %s", row, t0, t1, jobName)
	}
	if a.last < 0 || a.jobs[a.last].Name != string(jobName) {
		a.flush()
		k, seen := a.index[string(jobName)]
		if !seen {
			k = len(a.jobs)
			name := string(jobName)
			a.index[name] = k
			a.jobs = append(a.jobs, Job{Name: name})
		}
		a.last = k
	}
	// A name of n bytes lists fewer than n/2+1 parents; start a new chunk
	// when the current one might not hold them, so the append below
	// never moves earlier rows' lists.
	if need := len(name)/2 + 1; cap(a.arena)-len(a.arena) < need {
		a.arena = make([]int, 0, max(parentChunk, need))
	}
	n := len(a.arena)
	id, arena, ok := scanTaskName(name, a.arena)
	a.arena = arena
	st := Stage{ID: id, Start: start, End: end}
	switch {
	case !ok:
		// No dependency list, or a corrupt one; the work is real. Keep
		// the stage without the untrustworthy edges.
		st.ID = -1
	case len(arena) > n:
		kept := arena[n:n]
		for _, p := range arena[n:] {
			if p != id {
				kept = append(kept, p)
			}
		}
		a.arena = arena[:n+len(kept)]
		st.Parents = a.arena[n:len(a.arena):len(a.arena)]
	}
	a.cur = append(a.cur, st)
	return nil
}

// flush moves the gathered rows into their job's stages.
func (a *assembler) flush() {
	if len(a.cur) == 0 {
		return
	}
	j := &a.jobs[a.last]
	if j.Stages == nil {
		j.Stages = make([]Stage, len(a.cur))
		copy(j.Stages, a.cur)
	} else {
		j.Stages = append(j.Stages, a.cur...)
	}
	a.cur = a.cur[:0]
}

// settle finishes one job in place: unstructured tasks get synthetic IDs
// after the max structured one, a repeated stage row is collapsed into
// the first, the arrival becomes the earliest start, and the edges
// Job.Graph would keep are checked for a cycle, the only way the job's
// graph can still fail to build. It reports whether the job is acyclic.
func settle(job *Job, sc *jobScratch, cc *dag.CycleCheck) bool {
	maxID, unnamed := 0, 0
	for _, s := range job.Stages {
		maxID = max(maxID, s.ID)
		if s.ID < 0 {
			unnamed++
		}
	}
	sc.pos.reset(len(job.Stages), maxID+unnamed)
	kept := job.Stages[:0]
	for _, st := range job.Stages {
		if st.ID < 0 {
			maxID++
			st.ID = maxID
		}
		if !sc.pos.add(st.ID, len(kept)) {
			continue // duplicate task rows exist in the real trace
		}
		if len(kept) == 0 || st.Start < job.Arrival {
			job.Arrival = st.Start
		}
		kept = append(kept, st)
	}
	job.Stages = kept
	return cc.Acyclic(sc.link(job.Stages))
}

// WriteCSV emits the trace in the batch_task.csv format Parse understands,
// so generated traces round-trip.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, j := range t.Jobs {
		for _, s := range j.Stages {
			name := fmt.Sprintf("M%d", s.ID)
			if len(s.Parents) > 0 {
				parts := make([]string, 0, len(s.Parents)+1)
				parts = append(parts, fmt.Sprintf("R%d", s.ID))
				for _, p := range s.Parents {
					parts = append(parts, strconv.Itoa(p))
				}
				name = strings.Join(parts, "_")
			}
			rec := []string{
				name, "1", j.Name, "batch", "Terminated",
				strconv.FormatFloat(s.Start, 'f', 3, 64),
				strconv.FormatFloat(s.End, 'f', 3, 64),
				"100", "0.5",
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// JobStats summarizes one job for the Fig. 2 / Fig. 3 analyses.
type JobStats struct {
	Stages         int
	ParallelStages int
	// ParallelMakespanFrac is the makespan of the parallel stages divided
	// by the job execution time (0 when the job has no parallel stages).
	ParallelMakespanFrac float64
}

// Analyze computes per-job statistics across the trace. Jobs whose DAG
// fails to build are skipped.
func Analyze(t *Trace) []JobStats {
	out := make([]JobStats, 0, len(t.Jobs))
	for i := range t.Jobs {
		j := &t.Jobs[i]
		g, err := j.Graph()
		if err != nil {
			continue
		}
		r, err := dag.NewReachability(g)
		if err != nil {
			continue
		}
		k := dag.ParallelStages(g, r)
		st := JobStats{Stages: len(j.Stages), ParallelStages: len(k)}
		if len(k) > 0 {
			inK := map[int]bool{}
			for _, id := range k {
				inK[int(id)] = true
			}
			var kLo, kHi, jLo, jHi float64
			firstK, firstJ := true, true
			for _, s := range j.Stages {
				if firstJ || s.Start < jLo {
					jLo = s.Start
				}
				if firstJ || s.End > jHi {
					jHi = s.End
				}
				firstJ = false
				if inK[s.ID] {
					if firstK || s.Start < kLo {
						kLo = s.Start
					}
					if firstK || s.End > kHi {
						kHi = s.End
					}
					firstK = false
				}
			}
			if jHi > jLo {
				st.ParallelMakespanFrac = (kHi - kLo) / (jHi - jLo)
			}
		}
		out = append(out, st)
	}
	return out
}

// Summary aggregates the headline numbers the paper reports from the
// trace (Sec. 2.1).
type Summary struct {
	Jobs                  int
	JobsWithParallel      int     // paper: 68.6% of jobs
	TotalStages           int     // paper: 16,650,134
	TotalParallelStages   int     // paper: 13,173,110 (79.1%)
	ParallelStageShare    float64 // TotalParallelStages / TotalStages
	JobsWithParallelShare float64
	MeanParallelFrac      float64 // paper: 82.3%
}

// Summarize condenses Analyze output.
func Summarize(stats []JobStats) Summary {
	s := Summary{Jobs: len(stats)}
	fracs := 0.0
	nFrac := 0
	for _, js := range stats {
		s.TotalStages += js.Stages
		s.TotalParallelStages += js.ParallelStages
		if js.ParallelStages > 0 {
			s.JobsWithParallel++
			fracs += js.ParallelMakespanFrac
			nFrac++
		}
	}
	if s.TotalStages > 0 {
		s.ParallelStageShare = float64(s.TotalParallelStages) / float64(s.TotalStages)
	}
	if s.Jobs > 0 {
		s.JobsWithParallelShare = float64(s.JobsWithParallel) / float64(s.Jobs)
	}
	if nFrac > 0 {
		s.MeanParallelFrac = fracs / float64(nFrac)
	}
	return s
}

// SortByArrival orders jobs by arrival time (replays need it).
func (t *Trace) SortByArrival() {
	sort.SliceStable(t.Jobs, func(i, j int) bool { return t.Jobs[i].Arrival < t.Jobs[j].Arrival })
}
