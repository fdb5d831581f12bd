// Package obs is the observability layer on top of the simulator's typed
// event stream (sim.Observer): pluggable, deterministic exporters that
// turn a run into machine-readable artifacts.
//
//   - JSONL: one JSON object per engine event, schema-stable, byte-
//     deterministic for a given run (suitable for golden files and diffs).
//   - ChromeTracer: a Chrome trace-event file (load in chrome://tracing or
//     https://ui.perfetto.dev) with one process track per node, one thread
//     per stage partition, instant markers for retries/crashes/delay
//     revisions, and counter tracks for CPU/network/disk usage.
//   - RunSummary / WriteJSON: stable-schema JSON summaries of sim results
//     and experiment tables — the machine-readable twin of the text output.
//
// Exporters are plain sim.Observer values; compose them with Multi and
// attach via sim.Options.Observer. A nil observer keeps the engine
// bit-identical to a build without the layer.
package obs

import (
	"bufio"
	"io"
	"reflect"
	"strconv"

	"delaystage/internal/sim"
)

// JSONLSchema identifies the JSONL event-log line format. Bump only on
// incompatible changes; adding optional fields is compatible.
const JSONLSchema = "delaystage/events/v1"

// JSONL writes one JSON object per simulator event. Field order and float
// formatting are fixed, so the output for a given run is byte-identical
// across processes, platforms and -parallelism settings.
//
// Line schema (fields omitted when not applicable):
//
//	{"t":<sec>,"kind":"<EventKind>","run":<n>,"job":<n>,"stage":<n>,
//	 "node":<n>,"attempt":<n>,"delay":<sec>,"prefetch":true,
//	 "detail":"<text>"}
type JSONL struct {
	bw *bufio.Writer
	// Run is an optional run label included on every line when ≥ 0 —
	// callers replaying many sim runs into one log (cmd/replay) set it
	// between runs. Default -1: omitted.
	Run int
	buf []byte
}

// NewJSONL returns a JSONL exporter writing to w. Call Flush when done.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{bw: bufio.NewWriter(w), Run: -1}
}

// OnEvent implements sim.Observer.
func (l *JSONL) OnEvent(ev sim.Event) {
	b := l.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, ev.T, 'g', -1, 64)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if l.Run >= 0 {
		b = append(b, `,"run":`...)
		b = strconv.AppendInt(b, int64(l.Run), 10)
	}
	if ev.Job >= 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, int64(ev.Job), 10)
	}
	if ev.Stage >= 0 {
		b = append(b, `,"stage":`...)
		b = strconv.AppendInt(b, int64(ev.Stage), 10)
	}
	if ev.Node >= 0 {
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(ev.Node), 10)
	}
	if ev.Attempt > 0 {
		b = append(b, `,"attempt":`...)
		b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	}
	if ev.Kind == sim.EvTaskRetry || ev.Kind == sim.EvDelayRevised {
		b = append(b, `,"delay":`...)
		b = strconv.AppendFloat(b, ev.Delay, 'g', -1, 64)
	}
	if ev.Prefetch {
		b = append(b, `,"prefetch":true`...)
	}
	if ev.Detail != "" {
		b = append(b, `,"detail":`...)
		b = AppendJSONString(b, ev.Detail)
	}
	b = append(b, '}', '\n')
	l.buf = b
	l.bw.Write(b)
}

// SetRun sets the run label stamped on subsequent lines (RunLabeled).
func (l *JSONL) SetRun(run int) { l.Run = run }

// Flush drains the internal buffer to the underlying writer.
func (l *JSONL) Flush() error { return l.bw.Flush() }

// multi fans events out to several observers in order.
type multi []sim.Observer

func (m multi) OnEvent(ev sim.Event) {
	for _, o := range m {
		o.OnEvent(ev)
	}
}

// Multi composes observers: nil for none, the observer itself for one, a
// fan-out for more. Nil entries are dropped — including typed nils like a
// `var t *ChromeTracer` that was never constructed, so call sites can pass
// optional exporters unconditionally.
func Multi(os ...sim.Observer) sim.Observer {
	var live []sim.Observer
	for _, o := range os {
		if o == nil {
			continue
		}
		if v := reflect.ValueOf(o); v.Kind() == reflect.Pointer && v.IsNil() {
			continue
		}
		live = append(live, o)
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

// Func adapts a plain function to sim.Observer — handy for inline event
// hooks in examples and tests.
type Func func(sim.Event)

// OnEvent implements sim.Observer.
func (f Func) OnEvent(ev sim.Event) { f(ev) }
