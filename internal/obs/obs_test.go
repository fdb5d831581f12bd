package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
	"delaystage/internal/golden"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// fixedRun executes the reference run all golden files are pinned to: ALS
// at 0.2 scale on 3 nodes with hand-picked delays.
func fixedRun(t *testing.T, o sim.Observer) *sim.Result {
	t.Helper()
	c := cluster.NewM4LargeCluster(3)
	job := workload.ALS(c, 0.2)
	delays := map[dag.StageID]float64{2: 5, 3: 2.5}
	res, err := sim.Run(sim.Options{Cluster: c, TrackNode: 0, TrackCluster: true, Observer: o},
		[]sim.JobRun{{Job: job, Delays: delays}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	l := NewJSONL(&buf)
	fixedRun(t, l)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/events.golden.jsonl", buf.Bytes())

	// Every line must be valid JSON with monotonically non-decreasing t.
	last := -1.0
	n := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec struct {
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if rec.Kind == "" {
			t.Fatalf("line without kind: %q", line)
		}
		if rec.T < last {
			t.Fatalf("timestamps went backwards at %q", line)
		}
		last = rec.T
		n++
	}
	if n == 0 {
		t.Fatal("empty event log")
	}
}

func TestChromeTraceGolden(t *testing.T) {
	ct := NewChromeTracer()
	res := fixedRun(t, ct)
	ct.AddCounters(res)
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/trace.golden.json", buf.Bytes())

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	procs := map[string]bool{}
	var slices, counters int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs[ev.Args["name"].(string)] = true
			}
		case "X":
			slices++
		case "C":
			counters++
		}
	}
	for _, want := range []string{"cluster", "node 0", "node 1", "node 2"} {
		if !procs[want] {
			t.Errorf("missing process track %q (have %v)", want, procs)
		}
	}
	if slices == 0 {
		t.Error("no phase slices")
	}
	if counters == 0 {
		t.Error("no counter events")
	}
}

// TestJSONLDeterministicUnderFaults: identical fault plans must replay to
// byte-identical event logs, including retries and the crash.
func TestJSONLDeterministicUnderFaults(t *testing.T) {
	logOnce := func() []byte {
		c := cluster.NewM4LargeCluster(5)
		job := workload.PaperWorkloads(c, 0.3)["LDA"]
		inj, err := faults.NewInjector(faults.FaultPlan{
			Seed: 11, TaskFailureProb: 0.08,
			Crashes: []faults.NodeCrash{{Node: 1, At: 30}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		l := NewJSONL(&buf)
		if _, err := sim.Run(sim.Options{Cluster: c, TrackNode: -1, Faults: inj,
			MaxAttempts: 8, Observer: l}, []sim.JobRun{{Job: job}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := logOnce(), logOnce()
	if !bytes.Equal(a, b) {
		t.Error("fault replay produced different event logs")
	}
	if !bytes.Contains(a, []byte(`"kind":"node_crash"`)) {
		t.Error("expected a node_crash event in the log")
	}
	if !bytes.Contains(a, []byte(`"kind":"task_retry"`)) {
		t.Error("expected task_retry events in the log")
	}
}

func TestMultiComposition(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of nothing must be nil")
	}
	// Typed nils (an exporter that was never constructed) must be dropped
	// too, not dispatched on.
	var ct *ChromeTracer
	var jl *JSONL
	if got := Multi(ct, jl); got != nil {
		t.Error("Multi kept typed-nil observers")
	}
	var a, b int
	fa := Func(func(sim.Event) { a++ })
	if got := Multi(nil, fa); got == nil {
		t.Error("Multi(nil, x) dropped x")
	} else {
		got.OnEvent(sim.Event{})
		if a != 1 {
			t.Error("single observer not invoked")
		}
	}
	m := Multi(fa, Func(func(sim.Event) { b++ }))
	m.OnEvent(sim.Event{})
	if a != 2 || b != 1 {
		t.Errorf("fan-out miscounted: a=%d b=%d", a, b)
	}
}

func TestRunSummarySchema(t *testing.T) {
	res := fixedRun(t, nil)
	sum := NewRunSummary(res)
	sum.Workload, sum.Strategy, sum.Nodes = "ALS", "manual", 3
	raw, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != RunSummarySchema {
		t.Errorf("schema = %v", m["schema"])
	}
	for _, key := range []string{"jct_seconds", "makespan_seconds", "avg_cpu_util", "sim_events", "stages"} {
		if _, ok := m[key]; !ok {
			t.Errorf("summary missing %q", key)
		}
	}
	if len(sum.Stages) == 0 {
		t.Fatal("no stage summaries")
	}
	if sum.MakespanSeconds <= 0 || sum.JCTSeconds[0] <= 0 {
		t.Error("non-positive durations in summary")
	}
}
