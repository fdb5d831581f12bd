package sim

import (
	"math"
	"reflect"
	"testing"

	"delaystage/internal/faults"
	"delaystage/internal/workload"
)

// recorder captures the event stream for inspection.
type recorder struct{ events []Event }

func (r *recorder) OnEvent(ev Event) { r.events = append(r.events, ev) }

// TestObserverDoesNotPerturbRun: attaching an observer must leave every
// simulated quantity bit-identical to the unobserved run.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	c := ref(10)
	job := workload.PaperWorkloads(c, 0.3)["LDA"]
	inj, err := faults.NewInjector(faults.FaultPlan{
		Seed: 7, TaskFailureProb: 0.05,
		Crashes: []faults.NodeCrash{{Node: 1, At: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj2, _ := faults.NewInjector(faults.FaultPlan{
		Seed: 7, TaskFailureProb: 0.05,
		Crashes: []faults.NodeCrash{{Node: 1, At: 40}},
	})

	base := mustRun(t, Options{Cluster: c, TrackNode: 0, TrackCluster: true,
		Faults: inj, MaxAttempts: 8}, []JobRun{{Job: job}})
	rec := &recorder{}
	observed := mustRun(t, Options{Cluster: c, TrackNode: 0, TrackCluster: true,
		Faults: inj2, MaxAttempts: 8, Observer: rec}, []JobRun{{Job: job}})

	if base.Makespan != observed.Makespan {
		t.Errorf("makespan changed under observation: %v vs %v", base.Makespan, observed.Makespan)
	}
	if base.Retries != observed.Retries {
		t.Errorf("retries changed under observation: %d vs %d", base.Retries, observed.Retries)
	}
	if !reflect.DeepEqual(base.Timelines, observed.Timelines) {
		t.Error("stage timelines changed under observation")
	}
	if len(rec.events) == 0 {
		t.Fatal("observer saw no events")
	}
}

// TestObserverEventStream checks the stream is well-formed: monotonic
// timestamps, per-stage lifecycle order, correct terminal events.
func TestObserverEventStream(t *testing.T) {
	c := ref(5)
	job := chainJob(c, 20, 30, 10, 0)
	rec := &recorder{}
	res := mustRun(t, Options{Cluster: c, TrackNode: -1, Observer: rec},
		[]JobRun{{Job: job, Delays: nil}})

	last := -1.0
	phase := map[skey]int{} // stage → lifecycle rank reached
	var jobDone bool
	for i, ev := range rec.events {
		if ev.T < last {
			t.Fatalf("event %d: time went backwards (%v after %v)", i, ev.T, last)
		}
		last = ev.T
		if ev.Kind.String() == "unknown" {
			t.Fatalf("event %d has unknown kind %d", i, ev.Kind)
		}
		switch ev.Kind {
		case EvStageReady, EvStageSubmitted, EvStageCompleted:
			k := skey{ev.Job, ev.Stage}
			rank := map[EventKind]int{EvStageReady: 1, EvStageSubmitted: 2, EvStageCompleted: 3}[ev.Kind]
			if rank <= phase[k] {
				t.Fatalf("event %d: stage %v lifecycle out of order (%v at rank %d)", i, k, ev.Kind, phase[k])
			}
			phase[k] = rank
		case EvReadDone, EvComputeDone, EvWriteDone:
			if ev.Node < 0 {
				t.Fatalf("event %d: %v without a node", i, ev.Kind)
			}
		case EvJobDone:
			jobDone = true
			if ev.T != res.JobEnd[ev.Job] {
				t.Errorf("job_done at %v, JobEnd says %v", ev.T, res.JobEnd[ev.Job])
			}
		}
	}
	if !jobDone {
		t.Error("no job_done event")
	}
	for _, id := range job.Graph.Stages() {
		if phase[skey{0, id}] != 3 {
			t.Errorf("stage %d never completed in the stream (rank %d)", id, phase[skey{0, id}])
		}
	}
}

// TestObserverFaultEvents: retries, crashes and job failures surface as
// typed events.
func TestObserverFaultEvents(t *testing.T) {
	c := ref(5)
	job := twoParallelJob(c, 10, 30, 10)
	inj, err := faults.NewInjector(faults.FaultPlan{
		Seed: 3, Crashes: []faults.NodeCrash{{Node: 2, At: 15}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	mustRun(t, Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 8,
		Observer: rec}, []JobRun{{Job: job}})

	var crash, retry bool
	for _, ev := range rec.events {
		switch ev.Kind {
		case EvNodeCrash:
			crash = true
			if ev.Node != 2 {
				t.Errorf("crash on node %d, want 2", ev.Node)
			}
		case EvTaskRetry:
			retry = true
			if ev.Delay <= 0 {
				t.Errorf("retry with non-positive backoff %v", ev.Delay)
			}
		}
	}
	if !crash {
		t.Error("no node_crash event")
	}
	if !retry {
		t.Error("no task_retry event after the crash killed in-flight tasks")
	}
}

// TestEventKindStrings pins the wire names — the JSONL schema depends on
// them being stable.
func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EvStageReady:      "stage_ready",
		EvStageSubmitted:  "stage_submitted",
		EvReadDone:        "read_done",
		EvComputeDone:     "compute_done",
		EvWriteDone:       "write_done",
		EvStageCompleted:  "stage_completed",
		EvTaskRetry:       "task_retry",
		EvNodeCrash:       "node_crash",
		EvDelayRevised:    "delay_revised",
		EvJobDone:         "job_done",
		EvJobFailed:       "job_failed",
		EvSpecLaunched:    "spec_launched",
		EvSpecWin:         "spec_win",
		EvNodeBlacklisted: "node_blacklisted",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestTakeEndedMatchesObserver: the jobs TakeEnded reports, call after
// call, are the observer's EvJobDone and EvJobFailed events in order,
// with their times and error texts. The load has twin jobs that end in
// one step and, under certain task failure, jobs that abort.
func TestTakeEndedMatchesObserver(t *testing.T) {
	c := ref(6)
	lda := workload.PaperWorkloads(c, 0.2)["LDA"]
	chain := chainJob(c, 20, 30, 10, 0)
	runs := []JobRun{{Job: chain}, {Job: chain}, {Job: lda, Arrival: 5}, {Job: chain, Arrival: 40}, {Job: chain, Arrival: 40}}
	for _, fail := range []float64{0, 1} {
		inj, err := faults.NewInjector(faults.FaultPlan{Seed: 3, TaskFailureProb: fail})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		st, err := NewStepper(Options{Cluster: c, TrackNode: -1, Faults: inj, MaxAttempts: 2, Observer: rec}, runs)
		if err != nil {
			t.Fatal(err)
		}
		var got []JobEnd
		for _, at := range []float64{1, 30, 40, 100, math.Inf(1)} {
			if err := st.AdvanceBefore(at); err != nil {
				t.Fatal(err)
			}
			if f, err := st.Fork(nil); err == nil {
				if err := f.AdvanceBefore(math.Inf(1)); err != nil || len(f.TakeEnded(nil)) != st.e.jobsLeft {
					t.Fatalf("fail=%v: a fork at %v did not report just the jobs it ended (%v)", fail, at, err)
				}
				f.Close()
			}
			got = st.TakeEnded(got)
			if more := st.TakeEnded(nil); len(more) != 0 {
				t.Fatalf("fail=%v: a second TakeEnded reported %v", fail, more)
			}
		}
		var want []Event
		for _, ev := range rec.events {
			if ev.Kind == EvJobDone || ev.Kind == EvJobFailed {
				want = append(want, ev)
			}
		}
		if len(got) != len(runs) || len(got) != len(want) {
			t.Fatalf("fail=%v: TakeEnded reported %d jobs, observer %d, runs %d", fail, len(got), len(want), len(runs))
		}
		ties := 0
		for i, je := range got {
			detail := ""
			if je.Err != nil {
				detail = je.Err.Error()
			}
			if w := want[i]; je.Job != w.Job || je.End != w.T || detail != w.Detail || (w.Kind == EvJobFailed) != (fail == 1) {
				t.Fatalf("fail=%v: end %d: TakeEnded %+v, observer %+v", fail, i, je, w)
			}
			if i > 0 && je.End == got[i-1].End {
				ties++
			}
		}
		if fail == 0 && ties == 0 {
			t.Fatal("vacuous: no two jobs ended at one instant")
		}
		if st.Close(); len(st.TakeEnded(nil)) != 0 {
			t.Fatal("a closed stepper reported ended jobs")
		}
	}
}
