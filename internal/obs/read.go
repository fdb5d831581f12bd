package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"delaystage/internal/dag"
	"delaystage/internal/sim"
)

// LoggedEvent is one decoded JSONL line: the engine event plus the
// optional run label cmd/replay stamps on multi-run logs (-1 when the
// line carried none).
type LoggedEvent struct {
	Run   int
	Event sim.Event
}

// kindByName maps the stable wire names back to event kinds. Built from
// EventKind.String itself, so a new kind is picked up automatically.
var kindByName = func() map[string]sim.EventKind {
	m := make(map[string]sim.EventKind)
	for k := sim.EventKind(0); ; k++ {
		name := k.String()
		if name == "unknown" {
			break
		}
		m[name] = k
	}
	return m
}()

// jsonlLine mirrors the JSONL encoder's field set. Pointer fields
// distinguish "absent" from zero for the fields the encoder omits when
// negative (-1 sentinels).
type jsonlLine struct {
	T        *float64 `json:"t"`
	Kind     string   `json:"kind"`
	Run      *int     `json:"run"`
	Job      *int     `json:"job"`
	Stage    *int     `json:"stage"`
	Node     *int     `json:"node"`
	Attempt  int      `json:"attempt"`
	Delay    float64  `json:"delay"`
	Prefetch bool     `json:"prefetch"`
	Detail   string   `json:"detail"`
}

// DecodeEvents streams the event lines of a JSONL log, invoking fn for
// every decoded line in file order. It is the inverse of the JSONL
// exporter: a log the exporter wrote decodes without loss, and
// re-encoding the decoded events with the exporter, each under its run
// label, reproduces the log byte-for-byte. Job-trace lines interleaved in the same log are skipped;
// use DecodeLog to receive both streams.
func DecodeEvents(r io.Reader, fn func(LoggedEvent) error) error {
	return DecodeLog(r, fn, nil)
}

// DecodeLog streams a mixed JSONL log, dispatching plain engine-event
// lines to onEvent and job-trace lines (schema "delaystage/trace/v1") to
// onTrace, each in file order. A nil callback skips that line class.
// Blank lines are skipped; a malformed line, an unknown kind or schema,
// or a missing/non-finite timestamp aborts with an error naming the line
// number. A callback returning an error stops the stream with that error.
func DecodeLog(r io.Reader, onEvent func(LoggedEvent) error, onTrace func(Trace) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		// Cheap pre-check avoids a second parse of plain event lines (the
		// encoder never emits a "schema" field on them); a false positive
		// — e.g. the substring inside a detail string — just means the
		// probe parse runs and finds no schema.
		if bytes.Contains(raw, []byte(`"schema"`)) {
			var probe struct {
				Schema string `json:"schema"`
			}
			if err := json.Unmarshal(raw, &probe); err != nil {
				return fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
			if probe.Schema != "" {
				if probe.Schema != TraceSchema {
					return fmt.Errorf("obs: line %d: unknown schema %q", lineNo, probe.Schema)
				}
				if onTrace == nil {
					continue
				}
				var tr Trace
				if err := json.Unmarshal(raw, &tr); err != nil {
					return fmt.Errorf("obs: line %d: %w", lineNo, err)
				}
				if tr.TraceID == "" {
					return fmt.Errorf("obs: line %d: trace line missing trace_id", lineNo)
				}
				if err := onTrace(tr); err != nil {
					return err
				}
				continue
			}
		}
		if onEvent == nil {
			continue
		}
		var ln jsonlLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		if ln.Kind == "" {
			return fmt.Errorf("obs: line %d: missing kind", lineNo)
		}
		kind, ok := kindByName[ln.Kind]
		if !ok {
			return fmt.Errorf("obs: line %d: unknown kind %q", lineNo, ln.Kind)
		}
		if ln.T == nil || math.IsNaN(*ln.T) || math.IsInf(*ln.T, 0) {
			return fmt.Errorf("obs: line %d: missing or non-finite timestamp", lineNo)
		}
		le := LoggedEvent{Run: -1, Event: sim.Event{
			T: *ln.T, Kind: kind, Job: -1, Stage: -1, Node: -1,
			Attempt: ln.Attempt, Delay: ln.Delay, Prefetch: ln.Prefetch,
			Detail: ln.Detail,
		}}
		if ln.Run != nil {
			le.Run = *ln.Run
		}
		if ln.Job != nil {
			le.Event.Job = *ln.Job
		}
		if ln.Stage != nil {
			le.Event.Stage = dag.StageID(*ln.Stage)
		}
		if ln.Node != nil {
			le.Event.Node = *ln.Node
		}
		if err := onEvent(le); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: line %d: %w", lineNo+1, err)
	}
	return nil
}

// ReadEvents decodes a whole JSONL event log into memory. See
// DecodeEvents for the streaming form and the error contract.
func ReadEvents(r io.Reader) ([]LoggedEvent, error) {
	var out []LoggedEvent
	err := DecodeEvents(r, func(le LoggedEvent) error {
		out = append(out, le)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EventsOfRun filters a decoded log to one run label (use -1 for logs
// without labels) and strips the labels, yielding the plain event stream
// an attribution pass consumes.
func EventsOfRun(evs []LoggedEvent, run int) []sim.Event {
	var out []sim.Event
	for _, le := range evs {
		if le.Run == run {
			out = append(out, le.Event)
		}
	}
	return out
}

// Runs returns the distinct run labels present in a decoded log, in
// first-appearance order.
func Runs(evs []LoggedEvent) []int {
	seen := map[int]bool{}
	var out []int
	for _, le := range evs {
		if !seen[le.Run] {
			seen[le.Run] = true
			out = append(out, le.Run)
		}
	}
	return out
}
