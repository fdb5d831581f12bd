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
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

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
	known := make(map[int]bool, len(j.Stages))
	edges := 0
	for _, s := range j.Stages {
		known[s.ID] = true
		edges += len(s.Parents)
	}
	g := dag.NewSized(len(j.Stages), edges)
	var parents []dag.StageID // reused: AddStage copies the list
	for _, s := range j.Stages {
		parents = parents[:0]
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

// scanTaskName decodes the Alibaba task-name dependency grammar: a letter
// prefix, the stage's own number, then underscore-separated parent
// numbers — e.g. "M1" (stage 1, no parents), "R3_1_2" (stage 3 depends on
// stages 1 and 2). It appends a structured name's parent numbers to dst
// and returns the extended slice with ok set. Any other name — one without
// that structure ("task_...", "MergeTask", ...) or one that breaks it
// mid-way ("M3_1_x", "M1_") — returns id 0, dst as it came and ok false,
// and its task is treated as an independent stage.
func scanTaskName(name string, dst []int) (id int, _ []int, ok bool) {
	i := 0
	for i < len(name) && (name[i] < '0' || name[i] > '9') {
		i++
	}
	// Reject the "task_1234" style: prefix containing '_' is unstructured.
	if i == 0 || i >= len(name) || strings.IndexByte(name[:i], '_') >= 0 {
		return 0, dst, false
	}
	tok, rest, more := strings.Cut(name[i:], "_")
	id, err := strconv.Atoi(tok)
	if err != nil {
		return 0, dst, false
	}
	n := len(dst)
	for more {
		tok, rest, more = strings.Cut(rest, "_")
		v, err := strconv.Atoi(tok)
		if err != nil {
			return 0, dst[:n], false
		}
		dst = append(dst, v)
	}
	return id, dst, true
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

// parse reads and assembles the trace in one pass per job: each row's
// name is scanned once into the job's own stage list, which is then
// renumbered and deduplicated in place, and each job's DAG is checked by
// one Kahn pass over those stages without building a dag.Graph. dropped,
// if non-nil, sees every job removed as cyclic.
func parse(r io.Reader, dropped func(*Job)) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	// Jobs in order of first appearance, their rows as read. A row whose
	// name does not decode holds ID -1 (structured IDs are never negative)
	// until assembly gives it a synthetic one.
	var jobs []Job
	index := map[string]int{}
	var arena []int
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
		// A name of n bytes lists fewer than n/2+1 parents; start a new
		// chunk when the current one might not hold them, so the append
		// below never moves earlier rows' lists.
		if need := len(name)/2 + 1; cap(arena)-len(arena) < need {
			arena = make([]int, 0, max(parentChunk, need))
		}
		n := len(arena)
		var id int
		var ok bool
		id, arena, ok = scanTaskName(name, arena)
		st := Stage{ID: id, Start: start, End: end}
		switch {
		case !ok:
			// No dependency list, or a corrupt one; the work is real.
			// Keep the stage without the untrustworthy edges.
			st.ID = -1
		case len(arena) > n:
			kept := arena[n:n]
			for _, p := range arena[n:] {
				if p != id {
					kept = append(kept, p)
				}
			}
			arena = arena[:n+len(kept)]
			st.Parents = arena[n:len(arena):len(arena)]
		}
		jobs[k].Stages = append(jobs[k].Stages, st)
	}
	tr := &Trace{}
	// Scratch reused across jobs: stage ID → position, and the parent
	// position index the cycle check reads.
	pos := map[int]int{}
	var back, ends []int
	var parents [][]int
	for k := range jobs {
		job := &jobs[k]
		// Unstructured tasks get synthetic IDs after the max structured
		// one.
		maxID := 0
		for _, s := range job.Stages {
			maxID = max(maxID, s.ID)
		}
		clear(pos)
		kept := job.Stages[:0]
		for _, st := range job.Stages {
			if st.ID < 0 {
				maxID++
				st.ID = maxID
			}
			if _, seen := pos[st.ID]; seen {
				continue // duplicate task rows exist in the real trace
			}
			pos[st.ID] = len(kept)
			if len(kept) == 0 || st.Start < job.Arrival {
				job.Arrival = st.Start
			}
			kept = append(kept, st)
		}
		job.Stages = kept
		// The edges Job.Graph would keep, dangling parents dropped. Rows
		// already lost their self parents and duplicates are collapsed
		// above, so a cycle is the only way the job's graph can fail to
		// build.
		back, ends = back[:0], ends[:0]
		for _, s := range job.Stages {
			for _, p := range s.Parents {
				if q, ok := pos[p]; ok {
					back = append(back, q)
				}
			}
			ends = append(ends, len(back))
		}
		parents = parents[:0]
		lo := 0
		for _, hi := range ends {
			parents = append(parents, back[lo:hi:hi])
			lo = hi
		}
		if !dag.Acyclic(parents) {
			if dropped != nil {
				dropped(job)
			}
			continue // drop cyclic jobs, as the paper excludes incomplete ones
		}
		tr.Jobs = append(tr.Jobs, *job)
	}
	return tr, nil
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
