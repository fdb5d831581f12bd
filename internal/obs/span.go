package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceSchema identifies the job-lifecycle trace line format. Trace lines
// share the JSONL event logs (one object per line, distinguished by this
// "schema" field), so a single -events file carries both the raw engine
// event stream and the per-job span trees. Bump only on incompatible
// changes; adding optional fields is compatible.
const TraceSchema = "delaystage/trace/v1"

// Trace is the complete lifecycle of one job through the scheduling
// service: a small span tree from submission to terminal state, final
// once the job reaches done/failed/rejected. The encoding is
// deterministic — a given job record renders byte-identically whether
// served live from /v1/trace/{id} or reconstructed offline by cmd/analyze
// from the exported JSONL line.
type Trace struct {
	Schema  string `json:"schema"`
	TraceID string `json:"trace_id"`
	Job     string `json:"job,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	State   string `json:"state"`
	Epoch   int    `json:"epoch"`
	Spans   []Span `json:"spans"`
}

// Span is one phase of a job's lifecycle. IDs are dense indices into
// Trace.Spans (span i has ID i); Parent is the ID of the enclosing span,
// -1 for the root. Start/End are simulation seconds. A span still running
// when the trace was built carries Open=true and a provisional End (the
// data-plane clock at build time); terminal traces have no open spans.
type Span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Start  float64        `json:"start"`
	End    float64        `json:"end"`
	Open   bool           `json:"open,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	Audit  *DecisionAudit `json:"audit,omitempty"`
}

// Span kinds. One trace has exactly one "job" root; the others hang off
// it: submit → admission → plan → queue → one "stage" span per DAG stage.
const (
	SpanJob       = "job"
	SpanSubmit    = "submit"
	SpanAdmission = "admission"
	SpanPlan      = "plan"
	SpanQueue     = "queue"
	SpanStage     = "stage"
)

// DecisionAudit records how the control plane arrived at a job's delay
// plan — attached to the trace's plan span. Exactly one of the three plan
// sources applies: "planner" (a cold Alg. 1 sweep), "template-cache" (a
// fingerprint hit validated against profile drift), or "queue-revision"
// (the queue-depth dispatch revision replaced the sweep).
type DecisionAudit struct {
	Source           string `json:"source"`
	Fingerprint      string `json:"fingerprint,omitempty"`
	QueueDepth       int    `json:"queue_depth"`
	CacheHit         bool   `json:"cache_hit,omitempty"`
	CacheInvalidated bool   `json:"cache_invalidated,omitempty"`

	// Alg. 1 search-space shape for "planner" plans: how many objective
	// evaluations ran (incumbent baseline included), over how many
	// delay-eligible stages and execution paths.
	Evaluations    int `json:"evaluations,omitempty"`
	ParallelStages int `json:"parallel_stages,omitempty"`
	Paths          int `json:"paths,omitempty"`

	// Two-tier scan telemetry for "planner" plans: Bounded candidates
	// received an analytic makespan lower bound, Pruned were eliminated
	// by it before any simulation, and ExactEvals/ApproxEvals split how
	// the surviving candidates were answered (full simulation vs the
	// analytic model of approximate-planning mode).
	Bounded     int `json:"bounded,omitempty"`
	Pruned      int `json:"pruned,omitempty"`
	ExactEvals  int `json:"exact_evals,omitempty"`
	ApproxEvals int `json:"approx_evals,omitempty"`

	// IncumbentTotal is the submit-when-ready baseline (Σ JCT over the
	// committed jobs plus the newcomer at nil delays); ChosenTotal is the
	// committed plan's value of the same objective.
	IncumbentTotal float64 `json:"incumbent_total,omitempty"`
	ChosenTotal    float64 `json:"chosen_total,omitempty"`

	// Fallback names the guard that discarded or replaced the sweep's
	// delays: "never-worse" when the sweep never beat the incumbent, or
	// "queue-depth" when the dispatch revision zeroed the plan. Empty when
	// the chosen delays stand as computed.
	Fallback string `json:"fallback,omitempty"`

	// Delays is the committed per-stage delay vector, keyed by stage ID
	// (as a string, so the JSON object round-trips deterministically —
	// encoding/json sorts object keys). Empty = submit-when-ready.
	Delays map[string]float64 `json:"delays,omitempty"`

	// WallSeconds is the wall-clock planning latency. It is the one
	// nondeterministic field in a trace: recorded once at plan time and
	// carried verbatim through every export path thereafter.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// EncodeTraceJSON writes tr as indented JSON — the exact rendering the
// service's HTTP layer uses for GET /v1/trace/{id}, so offline
// reconstruction (cmd/analyze -trace) is byte-comparable against a live
// fetch.
func EncodeTraceJSON(w io.Writer, tr Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// WriteTraceLine appends tr to a JSONL log as one compact line. The
// "schema" field marks it so DecodeEvents skips it and DecodeLog/ReadTraces
// pick it up.
func WriteTraceLine(w io.Writer, tr Trace) error {
	tr.Schema = TraceSchema
	b, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadTraces decodes every trace line in a mixed JSONL log, in file
// order, skipping plain event lines. See DecodeLog for the error
// contract.
func ReadTraces(r io.Reader) ([]Trace, error) {
	var out []Trace
	err := DecodeLog(r, nil, func(tr Trace) error {
		out = append(out, tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FindTrace returns the trace with the given ID, or false. Later lines
// win (in practice the service exports each job exactly once).
func FindTrace(traces []Trace, id string) (Trace, bool) {
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].TraceID == id {
			return traces[i], true
		}
	}
	return Trace{}, false
}

// WriteTraceChrome renders a job trace as a Chrome trace-event file (one
// thread track per span under a single process), loadable in
// chrome://tracing or https://ui.perfetto.dev. Closed spans become
// complete ("X") slices; instant spans and open spans become instant
// ("i") markers. Output is deterministic for a given trace.
func WriteTraceChrome(w io.Writer, tr Trace) error {
	var evs []chromeEvent
	procName := tr.TraceID
	if tr.Job != "" {
		procName += " " + tr.Job
	}
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": procName},
	})
	for _, sp := range tr.Spans {
		tid := sp.ID + 1
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": sp.Name},
		})
		args := spanArgs(sp)
		if sp.End > sp.Start && !sp.Open {
			evs = append(evs, chromeEvent{
				Name: sp.Name, Ph: "X", Ts: sp.Start * usec,
				Dur: (sp.End - sp.Start) * usec, Pid: 0, Tid: tid,
				Cat: sp.Kind, Args: args,
			})
		} else {
			evs = append(evs, chromeEvent{
				Name: sp.Name, Ph: "i", Ts: sp.Start * usec, Pid: 0,
				Tid: tid, Cat: sp.Kind, S: "t", Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// spanArgs flattens a span's attributes (and the audit's headline fields)
// into Chrome trace args. encoding/json sorts the keys, so the map is
// deterministic on the wire.
func spanArgs(sp Span) map[string]any {
	args := map[string]any{}
	for k, v := range sp.Attrs {
		args[k] = v
	}
	if a := sp.Audit; a != nil {
		args["source"] = a.Source
		if a.Fallback != "" {
			args["fallback"] = a.Fallback
		}
		if a.Evaluations > 0 {
			args["evaluations"] = a.Evaluations
		}
		if len(a.Delays) > 0 {
			keys := make([]string, 0, len(a.Delays))
			for k := range a.Delays {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			s := ""
			for i, k := range keys {
				if i > 0 {
					s += " "
				}
				s += fmt.Sprintf("S%s=%g", k, a.Delays[k])
			}
			args["delays"] = s
		}
	}
	if len(args) == 0 {
		return nil
	}
	return args
}
