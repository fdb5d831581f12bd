package obs

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"delaystage/internal/sim"
)

// writeEvents re-encodes decoded events with the JSONL exporter,
// honouring each event's run label.
func writeEvents(w io.Writer, evs []LoggedEvent) error {
	l := NewJSONL(w)
	for _, le := range evs {
		l.Run = le.Run
		l.OnEvent(le.Event)
	}
	return l.Flush()
}

// TestReadEventsGoldenRoundTrip: decoding the golden event log and
// re-encoding it must reproduce the file byte-for-byte — the decoder is
// the exact inverse of the encoder.
func TestReadEventsGoldenRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("testdata/events.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("golden log decoded to zero events")
	}
	var out bytes.Buffer
	if err := writeEvents(&out, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, out.Bytes()) {
		t.Fatalf("round-trip diverged from golden:\n got %d bytes\nwant %d bytes",
			out.Len(), len(raw))
	}
}

// TestReadEventsLiveRoundTrip: a freshly generated log (including faults,
// retries and a failure detail string) survives decode→encode unchanged,
// and the decoded events match what the observer saw.
func TestReadEventsLiveRoundTrip(t *testing.T) {
	var rec eventRecorder
	var buf bytes.Buffer
	l := NewJSONL(&buf)
	fixedRun(t, Multi(&rec, l))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(rec.events) {
		t.Fatalf("decoded %d events, observer saw %d", len(evs), len(rec.events))
	}
	for i, le := range evs {
		if le.Run != -1 {
			t.Fatalf("event %d: run label %d on an unlabelled log", i, le.Run)
		}
		if le.Event != rec.events[i] {
			t.Fatalf("event %d diverged:\n got %+v\nwant %+v", i, le.Event, rec.events[i])
		}
	}
	var out bytes.Buffer
	if err := writeEvents(&out, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), out.Bytes()) {
		t.Fatal("live log round-trip diverged")
	}
}

// eventRecorder captures raw events for comparison against decoder output.
type eventRecorder struct{ events []sim.Event }

func (r *eventRecorder) OnEvent(ev sim.Event) { r.events = append(r.events, ev) }

// TestReadEventsRunLabels: run labels survive the round trip and
// EventsOfRun/Runs slice the log correctly.
func TestReadEventsRunLabels(t *testing.T) {
	var buf bytes.Buffer
	l := NewJSONL(&buf)
	for run := 0; run < 3; run++ {
		l.Run = run
		l.OnEvent(sim.Event{T: float64(run), Kind: sim.EvStageReady, Job: 0, Stage: 1, Node: -1})
		l.OnEvent(sim.Event{T: float64(run) + 0.5, Kind: sim.EvJobDone, Job: 0, Stage: -1, Node: -1})
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runs := Runs(evs)
	if len(runs) != 3 || runs[0] != 0 || runs[1] != 1 || runs[2] != 2 {
		t.Fatalf("Runs = %v, want [0 1 2]", runs)
	}
	for _, run := range runs {
		sub := EventsOfRun(evs, run)
		if len(sub) != 2 {
			t.Fatalf("run %d has %d events, want 2", run, len(sub))
		}
		if sub[0].T != float64(run) {
			t.Fatalf("run %d starts at %v", run, sub[0].T)
		}
	}
	var out bytes.Buffer
	if err := writeEvents(&out, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), out.Bytes()) {
		t.Fatal("labelled log round-trip diverged")
	}
}

// TestReadEventsDetailEscaping: detail strings with JSON-hostile content
// (quotes, backslashes, control chars, non-ASCII) survive the round trip.
func TestReadEventsDetailEscaping(t *testing.T) {
	details := []string{
		`plain`,
		`has "quotes" and \backslashes\`,
		"tab\tnewline\ncarriage\rreturn",
		"control \x01\x1f bytes",
		"non-ascii: é 図 🚀",
	}
	var buf bytes.Buffer
	l := NewJSONL(&buf)
	for i, d := range details {
		l.OnEvent(sim.Event{T: float64(i), Kind: sim.EvJobFailed, Job: 0,
			Stage: -1, Node: -1, Detail: d})
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range details {
		if evs[i].Event.Detail != d {
			t.Errorf("detail %d: got %q, want %q", i, evs[i].Event.Detail, d)
		}
	}
	var out bytes.Buffer
	if err := writeEvents(&out, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), out.Bytes()) {
		t.Fatal("detail-heavy log round-trip diverged")
	}
}

// TestReadEventsErrors: malformed input fails loudly with a line number
// rather than decoding garbage.
func TestReadEventsErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"bad json", "{not json}\n", "line 1"},
		{"missing kind", `{"t":1}` + "\n", "missing kind"},
		{"unknown kind", `{"t":1,"kind":"warp_drive"}` + "\n", `unknown kind "warp_drive"`},
		{"missing t", `{"kind":"job_done"}` + "\n", "timestamp"},
		{"second line", "{\"t\":1,\"kind\":\"job_done\"}\n{oops}\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEvents(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("decoded malformed input without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// Blank lines are tolerated, not errors.
	evs, err := ReadEvents(strings.NewReader("\n{\"t\":1,\"kind\":\"job_done\"}\n\n"))
	if err != nil || len(evs) != 1 {
		t.Fatalf("blank-line handling: evs=%d err=%v", len(evs), err)
	}
}
