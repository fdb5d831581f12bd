package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"delaystage/internal/golden"
)

// sampleTraces builds one rich trace (every span kind, audit, mixed attr
// types) and one minimal rejected trace — the fixtures for the golden and
// round-trip tests.
func sampleTraces() []Trace {
	done := Trace{
		Schema: TraceSchema, TraceID: "job-1", Job: "als", Tenant: "ci",
		State: "done", Epoch: 2,
		Spans: []Span{
			{ID: 0, Parent: -1, Kind: SpanJob, Name: "job job-1", Start: 0, End: 131.5,
				Attrs: map[string]any{"stages": 4}},
			{ID: 1, Parent: 0, Kind: SpanSubmit, Name: "submit", Start: 0, End: 0.5,
				Attrs: map[string]any{"clamped": true, "requested": 0.0}},
			{ID: 2, Parent: 0, Kind: SpanAdmission, Name: "admission", Start: 0.5, End: 0.5,
				Attrs: map[string]any{"accepted": true, "policy": "accept-all", "queue_depth": 1}},
			{ID: 3, Parent: 0, Kind: SpanPlan, Name: "plan", Start: 0.5, End: 0.5,
				Audit: &DecisionAudit{
					Source: "planner", Fingerprint: "fp:abc", QueueDepth: 1,
					Evaluations: 13, ParallelStages: 2, Paths: 3,
					IncumbentTotal: 140.25, ChosenTotal: 131.5,
					Delays:      map[string]float64{"2": 5, "3": 2.5},
					WallSeconds: 0.0125,
				}},
			{ID: 4, Parent: 0, Kind: SpanQueue, Name: "queue", Start: 0.5, End: 0.5,
				Attrs: map[string]any{"wait_seconds": 0.0}},
			{ID: 5, Parent: 0, Kind: SpanStage, Name: "stage 0", Start: 0.5, End: 60,
				Attrs: map[string]any{"submitted": 0.5}},
			{ID: 6, Parent: 0, Kind: SpanStage, Name: "stage 2", Start: 60, End: 131.5, Open: false,
				Attrs: map[string]any{"delay": 5.0, "parents": "0", "retries": 2, "submitted": 65.0}},
		},
	}
	rejected := Trace{
		Schema: TraceSchema, TraceID: "job-2", Tenant: "bulk",
		State: "rejected", Epoch: 2,
		Spans: []Span{
			{ID: 0, Parent: -1, Kind: SpanJob, Name: "job job-2", Start: 3, End: 3},
			{ID: 1, Parent: 0, Kind: SpanSubmit, Name: "submit", Start: 3, End: 3},
			{ID: 2, Parent: 0, Kind: SpanAdmission, Name: "admission", Start: 3, End: 3,
				Attrs: map[string]any{"accepted": false, "policy": "queue-cap", "reason": "queue full"}},
		},
	}
	return []Trace{done, rejected}
}

// TestTraceGolden pins the JSONL trace-line encoding and proves the
// decode→re-encode fixed point: reading the golden log back and writing
// it again reproduces the bytes exactly (the property cmd/analyze's
// offline reconstruction relies on).
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, tr := range sampleTraces() {
		if err := WriteTraceLine(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	golden.Check(t, "testdata/traces.golden.jsonl", buf.Bytes())

	traces, err := ReadTraces(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("decoded %d traces, want 2", len(traces))
	}
	var again bytes.Buffer
	for _, tr := range traces {
		if err := WriteTraceLine(&again, tr); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("ReadTraces∘WriteTraceLine is not the identity:\nfirst:\n%s\nsecond:\n%s",
			buf.Bytes(), again.Bytes())
	}
}

// TestTraceLiveOfflineParity is the core determinism contract of the
// tracing layer: rendering a trace with EncodeTraceJSON (the live
// /v1/trace encoding) must be byte-identical whether the input is the
// original in-memory value or the decoded JSONL export.
func TestTraceLiveOfflineParity(t *testing.T) {
	for _, tr := range sampleTraces() {
		var line bytes.Buffer
		if err := WriteTraceLine(&line, tr); err != nil {
			t.Fatal(err)
		}
		traces, err := ReadTraces(bytes.NewReader(line.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var live, offline bytes.Buffer
		if err := EncodeTraceJSON(&live, tr); err != nil {
			t.Fatal(err)
		}
		if err := EncodeTraceJSON(&offline, traces[0]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live.Bytes(), offline.Bytes()) {
			t.Errorf("trace %s: live and offline renderings differ:\nlive:\n%s\noffline:\n%s",
				tr.TraceID, live.Bytes(), offline.Bytes())
		}
	}
}

// TestDecodeLogMixed interleaves event and trace lines in one log and
// checks the dispatch: DecodeEvents sees only events, ReadTraces only
// traces, DecodeLog both in file order.
func TestDecodeLogMixed(t *testing.T) {
	var buf bytes.Buffer
	l := NewJSONL(&buf)
	fixedRun(t, l)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	eventLines := bytes.Count(buf.Bytes(), []byte("\n"))
	for _, tr := range sampleTraces() {
		if err := WriteTraceLine(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}

	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != eventLines {
		t.Errorf("ReadEvents on mixed log: %d events, want %d", len(evs), eventLines)
	}
	traces, err := ReadTraces(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0].TraceID != "job-1" || traces[1].TraceID != "job-2" {
		t.Errorf("ReadTraces on mixed log: got %+v", traces)
	}
	var nev, ntr int
	err = DecodeLog(bytes.NewReader(buf.Bytes()),
		func(LoggedEvent) error { nev++; return nil },
		func(Trace) error { ntr++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if nev != eventLines || ntr != 2 {
		t.Errorf("DecodeLog: %d events / %d traces, want %d / 2", nev, ntr, eventLines)
	}

	if _, ok := FindTrace(traces, "job-2"); !ok {
		t.Error("FindTrace missed job-2")
	}
	if _, ok := FindTrace(traces, "nope"); ok {
		t.Error("FindTrace invented a trace")
	}
}

// TestDecodeLogRejectsUnknownSchema: a line claiming a schema we don't
// know must abort the decode rather than be silently dropped.
func TestDecodeLogRejectsUnknownSchema(t *testing.T) {
	in := strings.NewReader(`{"schema":"delaystage/other/v9","trace_id":"x"}` + "\n")
	if _, err := ReadTraces(in); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Errorf("want unknown-schema error, got %v", err)
	}
	in = strings.NewReader(`{"schema":"delaystage/trace/v1","spans":[]}` + "\n")
	if _, err := ReadTraces(in); err == nil || !strings.Contains(err.Error(), "trace_id") {
		t.Errorf("want missing trace_id error, got %v", err)
	}
}

// TestWriteTraceChrome sanity-checks the span-tree Chrome rendering:
// valid JSON, one thread per span, closed spans as complete slices and
// instant/open spans as markers, and deterministic bytes across calls.
func TestWriteTraceChrome(t *testing.T) {
	tr := sampleTraces()[0]
	var buf bytes.Buffer
	if err := WriteTraceChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var threads, slices, instants int
	var planArgs map[string]any
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threads++
			}
		case "X":
			slices++
		case "i":
			instants++
			if ev.Name == "plan" {
				planArgs = ev.Args
			}
		}
	}
	if threads != len(tr.Spans) {
		t.Errorf("thread tracks = %d, want %d", threads, len(tr.Spans))
	}
	// Zero-width spans (admission, plan, queue) render as instants.
	if slices == 0 || instants == 0 {
		t.Errorf("slices = %d, instants = %d; want both > 0", slices, instants)
	}
	if planArgs["source"] != "planner" || planArgs["delays"] != "S2=5 S3=2.5" {
		t.Errorf("plan span args = %v", planArgs)
	}

	var again bytes.Buffer
	if err := WriteTraceChrome(&again, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("WriteTraceChrome is not deterministic")
	}
}
