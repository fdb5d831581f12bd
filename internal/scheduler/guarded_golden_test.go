package scheduler

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/golden"
	"delaystage/internal/obs"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// guardedCase is one run of the guarded golden: job planned by
// GuardedDelayStage on believed (the profiles the planner saw), then
// simulated as job under plan.
type guardedCase struct {
	name     string
	c        *cluster.Cluster
	job      *workload.Job
	believed *workload.Job
	plan     faults.FaultPlan
}

// guardedGoldenCases covers every way the guard can trip first — read-end
// drift, completion drift, a task retry, a node crash — and a run where it
// never trips.
func guardedGoldenCases(t *testing.T) []guardedCase {
	t.Helper()
	c8 := cluster.NewM4LargeCluster(8)
	paper := workload.PaperWorkloads(c8, 1)
	lda := paper["LDA"]
	crash := func(at float64) faults.FaultPlan {
		return faults.FaultPlan{Seed: 1, StragglerFactor: 1, SlowNodeFactor: 1,
			Crashes: []faults.NodeCrash{{Node: 1, At: at}}}
	}
	// The cmd/simulate flags of CI's chaos smoke: -workload LDA -nodes 8
	// -fault-rate 0.1 -crash-node 1 -crash-at 60 -guarded.
	chaos := crash(60)
	chaos.TaskFailureProb = 0.1
	cases := []guardedCase{
		{"chaos-smoke", c8, lda, lda, chaos},
		{"task-failures", c8, lda, lda, faults.FaultPlan{Seed: 1, TaskFailureProb: 0.1,
			StragglerFactor: 1, SlowNodeFactor: 1}},
		{"crash-30s", c8, lda, lda, crash(30)},
		{"crash-0s", c8, lda, lda, crash(0)},
		{"stragglers", c8, paper["CosineSimilarity"], paper["CosineSimilarity"],
			faults.FaultPlan{Seed: 1, StragglerFrac: 0.5, StragglerFactor: 3, SlowNodeFactor: 1}},
	}
	// Planning noise with no faults: the run drifts from the plan's
	// predictions, so only the drift checks can trip the guard.
	noise, err := faults.NewInjector(faults.FaultPlan{Seed: 1, MispredictNoise: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	names := make([]string, 0, len(paper))
	for name := range paper {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cases = append(cases, guardedCase{"mispredict-" + name, c8, paper[name],
			noise.PerturbJob(rng, paper[name]), faults.FaultPlan{}})
	}
	return append(cases, guardedCase{"fault-free", c8, lda, lda, faults.FaultPlan{}})
}

// firstTrigger names the event after which the guard first revised a
// delay — the check that tripped it — or "none" when it never did.
func firstTrigger(log []byte) string {
	prev := ""
	for _, line := range strings.Split(string(log), "\n") {
		_, rest, _ := strings.Cut(line, `"kind":"`)
		kind, _, _ := strings.Cut(rest, `"`)
		if kind == "delay_revised" {
			return prev
		}
		prev = kind
	}
	return "none"
}

// TestGuardedGolden pins guarded DelayStage runs bit for bit: per run the
// JCT, the retries, the number of planned delays and the full JSONL event
// log must match testdata/ exactly. The runs are chosen so that each of
// the guard's triggers trips it first in at least one of them. Run with
// -update to regenerate after an intended change.
func TestGuardedGolden(t *testing.T) {
	var out bytes.Buffer
	first := map[string]int{}
	for _, gc := range guardedGoldenCases(t) {
		plan, err := GuardedDelayStage{}.Plan(gc.c, gc.believed)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if len(plan.Delays) == 0 {
			t.Fatalf("%s: the plan delays nothing to guard", gc.name)
		}
		inj, err := faults.NewInjector(gc.plan)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		var log bytes.Buffer
		jl := obs.NewJSONL(&log)
		res, err := sim.Run(sim.Options{Cluster: gc.c, TrackNode: -1, Faults: inj,
			Watchdog: plan.Watchdog, Observer: jl}, []sim.JobRun{{Job: gc.job, Delays: plan.Delays}})
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if err := jl.Flush(); err != nil {
			t.Fatal(err)
		}
		if ferr := res.Failed(0); ferr != nil {
			t.Fatalf("%s: %v", gc.name, ferr)
		}
		trig := firstTrigger(bytes.TrimSuffix(log.Bytes(), []byte("\n")))
		first[trig]++
		fmt.Fprintf(&out, "== %s jct=%.17g retries=%d delays=%d first=%s\n",
			gc.name, res.JCT(0), res.Retries, len(plan.Delays), trig)
		out.Write(log.Bytes())
	}
	for _, trig := range []string{"read_done", "stage_completed", "task_retry", "node_crash", "none"} {
		if first[trig] == 0 {
			t.Errorf("no run trips the guard first on %s (first triggers: %v)", trig, first)
		}
	}
	golden.Check(t, "testdata/guarded.golden", out.Bytes())
}
