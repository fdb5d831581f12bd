package eventlog

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// Write emits the log as Spark event-log JSON lines (the subset Parse
// understands), so synthetic logs round-trip and can be inspected with
// standard Spark tooling conventions.
func Write(w io.Writer, l *Log) error {
	out := func(v interface{}) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
		return nil
	}
	if err := out(map[string]interface{}{
		"Event":    "SparkListenerApplicationStart",
		"App Name": l.AppName,
	}); err != nil {
		return err
	}
	for _, st := range l.Stages {
		sub := int64(st.Submitted * 1000)
		info := map[string]interface{}{
			"Stage ID":        st.ID,
			"Stage Name":      st.Name,
			"Number of Tasks": st.NumTasks,
			"Parent IDs":      st.Parents,
			"Submission Time": sub,
		}
		if err := out(map[string]interface{}{
			"Event":      "SparkListenerStageSubmitted",
			"Stage Info": info,
		}); err != nil {
			return err
		}
		// One TaskEnd per recorded task duration; byte metrics split evenly.
		n := len(st.TaskDurationsMs)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			dur := int64(0)
			if i < len(st.TaskDurationsMs) {
				dur = st.TaskDurationsMs[i]
			}
			metrics := map[string]interface{}{
				"Executor Run Time": st.ExecutorRunTimeMs / int64(n),
				"Input Metrics":     map[string]interface{}{"Bytes Read": st.InputBytes / int64(n)},
				"Output Metrics":    map[string]interface{}{"Bytes Written": st.OutputBytes / int64(n)},
				"Shuffle Read Metrics": map[string]interface{}{
					"Remote Bytes Read": st.ShuffleReadBytes / int64(n),
					"Local Bytes Read":  0,
				},
				"Shuffle Write Metrics": map[string]interface{}{
					"Shuffle Bytes Written": st.ShuffleWriteBytes / int64(n),
				},
			}
			if err := out(map[string]interface{}{
				"Event":        "SparkListenerTaskEnd",
				"Stage ID":     st.ID,
				"Task Info":    map[string]interface{}{"Launch Time": sub, "Finish Time": sub + dur},
				"Task Metrics": metrics,
			}); err != nil {
				return err
			}
		}
		comp := int64(st.Completed * 1000)
		infoDone := map[string]interface{}{
			"Stage ID":        st.ID,
			"Stage Name":      st.Name,
			"Number of Tasks": st.NumTasks,
			"Parent IDs":      st.Parents,
			"Submission Time": sub,
			"Completion Time": comp,
		}
		if err := out(map[string]interface{}{
			"Event":      "SparkListenerStageCompleted",
			"Stage Info": infoDone,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Synthesize produces an event log from a simulated run of a workload —
// the stand-in for running the job on a real Spark cluster and collecting
// its log. Task durations are spread according to each stage's skew.
func Synthesize(job *workload.Job, res *sim.Result, tasksPerStage int, rng *rand.Rand) *Log {
	if tasksPerStage <= 0 {
		tasksPerStage = 8
	}
	l := &Log{AppName: job.Name}
	for _, id := range job.Graph.Stages() {
		tl := res.Timeline(0, id)
		if tl == nil {
			continue
		}
		p := job.Profiles[id]
		st := StageRecord{
			ID:                int(id),
			Name:              job.Graph.Stage(id).Name,
			NumTasks:          tasksPerStage,
			Submitted:         tl.Start,
			Completed:         tl.End,
			ShuffleReadBytes:  p.ShuffleIn,
			ShuffleWriteBytes: p.ShuffleOut,
		}
		for _, pid := range job.Graph.Parents(id) {
			st.Parents = append(st.Parents, int(pid))
		}
		// Total executor run time consistent with R_k: bytes / rate.
		if p.ProcRate > 0 {
			st.ExecutorRunTimeMs = int64(float64(p.ShuffleIn) / p.ProcRate * 1000)
		}
		// Task durations spread over [1-skew, 1]× the max task duration.
		base := (tl.ComputeEnd - tl.ReadEnd) * 1000
		if base < 1 {
			base = 1
		}
		for i := 0; i < tasksPerStage; i++ {
			frac := 1.0
			if p.Skew > 0 {
				frac = 1 - float64(p.Skew*rng.Float64())
			}
			st.TaskDurationsMs = append(st.TaskDurationsMs, int64(base*frac))
		}
		// Guarantee the extremes so Skew() reconstructs p.Skew closely.
		if p.Skew > 0 && tasksPerStage >= 2 {
			st.TaskDurationsMs[0] = int64(base)
			st.TaskDurationsMs[1] = int64(base * (1 - p.Skew))
		}
		l.Stages = append(l.Stages, st)
	}
	return l
}

// String renders a compact per-stage summary (debugging aid).
func (l *Log) String() string {
	s := fmt.Sprintf("app %q, %d stages", l.AppName, len(l.Stages))
	return s
}
