package obs

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadEvents checks the decoder's core contract on arbitrary input:
// it never panics, and whenever it accepts a log, re-encoding the decoded
// events yields a fixed point — encode(decode(x)) decodes again and
// encodes to the same bytes. (Raw input is not required to be byte-equal
// to its re-encoding: hand-written JSON may use different field order or
// float spelling; encoder output is, per the golden round-trip test.)
func FuzzReadEvents(f *testing.F) {
	if raw, err := os.ReadFile("testdata/events.golden.jsonl"); err == nil {
		f.Add(raw)
		// Individual golden lines exercise single-event paths.
		for _, line := range bytes.SplitAfter(raw, []byte{'\n'}) {
			if len(line) > 0 {
				f.Add(line)
			}
		}
	}
	f.Add([]byte(`{"t":1,"kind":"job_done","job":0}` + "\n"))
	f.Add([]byte(`{"t":0.25,"kind":"task_retry","job":1,"stage":3,"node":2,"attempt":2,"delay":4}` + "\n"))
	f.Add([]byte(`{"t":3,"kind":"job_failed","job":0,"detail":"boom \"quoted\" "}` + "\n"))
	f.Add([]byte(`{"t":9,"kind":"stage_submitted","run":2,"job":0,"stage":1,"prefetch":true}` + "\n"))
	f.Add([]byte("not json\n"))
	// Mixed logs: trace lines interleave with events and must be skipped.
	if raw, err := os.ReadFile("testdata/traces.golden.jsonl"); err == nil {
		f.Add(raw)
		f.Add(append([]byte(`{"t":1,"kind":"job_done","job":0}`+"\n"), raw...))
	}
	f.Add([]byte(`{"schema":"delaystage/trace/v1","trace_id":"j","state":"done","epoch":0,"spans":[]}` + "\n"))
	f.Add([]byte(`{"schema":"delaystage/bogus/v1"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var once bytes.Buffer
		if err := writeEvents(&once, evs); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		evs2, err := ReadEvents(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("encoder output did not decode: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := writeEvents(&twice, evs2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point:\nfirst:  %s\nsecond: %s",
				once.Bytes(), twice.Bytes())
		}
	})
}

// FuzzReadTraces is the trace-line twin of FuzzReadEvents: ReadTraces
// never panics on arbitrary input, and accepted traces re-encode to a
// fixed point (first re-encoding normalizes hand-written field order and
// attr spelling; the second must reproduce it byte-for-byte).
func FuzzReadTraces(f *testing.F) {
	if raw, err := os.ReadFile("testdata/traces.golden.jsonl"); err == nil {
		f.Add(raw)
		for _, line := range bytes.SplitAfter(raw, []byte{'\n'}) {
			if len(line) > 0 {
				f.Add(line)
			}
		}
	}
	f.Add([]byte(`{"schema":"delaystage/trace/v1","trace_id":"j","state":"queued","epoch":1,` +
		`"spans":[{"id":0,"parent":-1,"kind":"job","name":"job j","start":0,"end":2,"open":true,` +
		`"attrs":{"nested":{"x":[1,2,null,"s"]}}}]}` + "\n"))
	f.Add([]byte(`{"t":1,"kind":"job_done","job":0}` + "\n"))
	f.Add([]byte("{}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := ReadTraces(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		for _, tr := range traces {
			if err := WriteTraceLine(&once, tr); err != nil {
				t.Fatalf("re-encode of accepted trace failed: %v", err)
			}
		}
		traces2, err := ReadTraces(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("encoder output did not decode: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		for _, tr := range traces2 {
			if err := WriteTraceLine(&twice, tr); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("trace encode∘decode is not a fixed point:\nfirst:  %s\nsecond: %s",
				once.Bytes(), twice.Bytes())
		}
	})
}
