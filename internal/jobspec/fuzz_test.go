package jobspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"delaystage/internal/cluster"
)

// FuzzParse: arbitrary JSON must either error or produce a spec that
// materializes into a valid workload (or is rejected at that step).
func FuzzParse(f *testing.F) {
	f.Add(sampleJSON)
	f.Add(`{"stages":[{"id":1,"phases":{"read_sec":1,"compute_sec":1}}]}`)
	f.Add(`{"stages":[{"id":1,"parents":[1],"phases":{}}]}`)
	f.Add(`{"name":"x"}`)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if _, err := s.Job(cluster.NewM4LargeCluster(2)); err != nil {
			return // cycles / bad profiles rejected, not panicked
		}
	})
}

// fuzzMaxStages is the stage limit FuzzDecodeMatchesJSON checks the
// decoder's in-decode cutoff against, small enough to reach.
const fuzzMaxStages = 3

// FuzzDecodeMatchesJSON holds the one-pass decoder to encoding/json with
// DisallowUnknownFields, on a submission and on a bare spec: both accept
// or both reject, and accepted inputs decode to deeply equal values with
// bit-identical floats. The decoder may reject more only with its
// duplicate-key or trailing-data error, and only where a json.Decoder
// token walk finds a duplicate key or data after the value; an input it
// accepts has neither. Under a stage limit it rejects exactly the inputs
// whose job is valid and longer than the limit, on top of the rest.
func FuzzDecodeMatchesJSON(f *testing.F) {
	f.Add(sampleJSON)
	f.Add(`{"tenant":"a","arrival":12.5,"job":` + sampleJSON + `}`)
	for _, src := range []string{
		`{"job":{"name":"x","stages":[{"id":1,"parents":[],"phases":{"read_sec":-0,"tasks":3}}]}}`,
		`{"Tenant":"a","ARRIVAL":1e-400,"jOb":{"ſtages":[{"id":2,"name":"😀\ud83d\ude00\ud800x\udc00\ud800\ud800\u00e9é\\\/\b\f\n\r\t","resources":{"shuffle_in_bytes":-9223372036854775808,"proc_rate_bps":1E+3}}]}}`,
		"{\"tenant\":\"\xff\xc3(\xed\xa0\x80\",\"job\":{\"stages\":[null,{\"id\":1,\"parents\":[null,2]}]}}",
		`{"tenant":null,"arrival":null,"job":{"name":null,"stages":[{"id":null,"parents":null,"phases":null,"resources":null}]}}`,
		`{"job":{"stages":[{"id":1,"resources":{"shuffle_in_bytes":1,"shuffle_out_bytes":2,"proc_rate_bps":3,"sKew":0.5,"tasKs":4}}]}}`,
		`{"job":{"stages":[{},{},{},{}]}}`,
		`{"job":{"stages":[{},{},{},{}, 1]}}`,
		`null`,
		` {"arrival":1}` + "\t\r\n ",
		`{"arrival":1e400}`,
		`{"job":{"stages":[{"id":1.0}]}}`,
		`{"job":{"stages":[{"id":1e2}]}}`,
		`{"job":{"stages":[{"id":9223372036854775808}]}}`,
		`{"job":{"stages":[{"id":"1"}]}}`,
		`{"tenant":"a","tenant":"b"}`,
		`{"tenAnt":"","tenAnt"`,
		`{"job":{"stages":[{"id":1,"phases":{"read_sec":1}},{"phases":{},"phases":{"read_sec":2}}]}}`,
		`{"job":{"stages":[{"id":1,"phases":{}}],"stages":[{"phases":{}}]}}`,
		`{"job":{"name":"x"}} garbage`,
		`{"job":{}}{}`,
		`{"job":{"stages":[]},"owner":"x"}`,
		`{"job":{"stages":[{"id":01}]}}`,
		`{"job":{"stages":[{"id":-}]}}`,
		`{"job":{"stages":[1,]}}`,
		"{\"tenant\":\"\x01\"}",
		`{"tenant":"\u12"}`,
		`{"tenant":"\a"}`,
		`{"tenant" "a"}`,
		`{"tenant":"a",}`,
		`[]`,
		`"x"`,
		``,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		data := []byte(src)
		sub, err := DecodeSubmission(data, math.MaxInt)
		var want Submission
		checkAgainstJSON(t, data, &sub, err, &want)

		limited, lerr := DecodeSubmission(data, fuzzMaxStages)
		over := err == nil && sub.Job != nil && len(sub.Job.Stages) > fuzzMaxStages
		switch {
		case errors.Is(lerr, errOverLimit):
			if err == nil && !over {
				t.Fatalf("stage-limit error on a job of at most %d stages: %v", fuzzMaxStages, lerr)
			}
		case over:
			t.Fatalf("a job of %d stages passed the limit of %d", len(sub.Job.Stages), fuzzMaxStages)
		case (lerr == nil) != (err == nil) || err == nil && !reflect.DeepEqual(limited, sub):
			t.Fatalf("the limit changed the outcome: %v vs %v", lerr, err)
		}

		spec, err := decodeSpec(data)
		if spec == nil {
			spec = new(Spec)
		}
		checkAgainstJSON(t, data, spec, err, new(Spec))
	})
}

// checkAgainstJSON compares got, decoded with error err, with what a
// json.Decoder with DisallowUnknownFields decodes from data into want.
func checkAgainstJSON[T any](t *testing.T, data []byte, got *T, err error, want *T) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	jerr := dec.Decode(want)
	dup, trailing := tokenWalk(data)
	switch {
	case err == nil && jerr != nil:
		t.Fatalf("accepted what encoding/json rejects: %v", jerr)
	case err == nil && (dup || trailing):
		t.Fatalf("accepted a duplicate key (%v) or trailing data (%v)", dup, trailing)
	case err == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, encoding/json %+v", got, want)
		}
		if g, w := floatBits(reflect.ValueOf(got), nil), floatBits(reflect.ValueOf(want), nil); !reflect.DeepEqual(g, w) {
			t.Fatalf("float bits %x, encoding/json %x", g, w)
		}
	case errors.Is(err, errDuplicateKey):
		if !dup {
			t.Fatalf("duplicate-key error where a token walk finds none: %v", err)
		}
	case errors.Is(err, errTrailingData):
		if !trailing {
			t.Fatalf("trailing-data error where a token walk finds none: %v", err)
		}
	case jerr == nil:
		t.Fatalf("rejected what encoding/json accepts: %v", err)
	}
}

// tokenWalk walks the first JSON value in data with json.Decoder.Token and
// reports whether one of its objects has two keys equal under
// strings.EqualFold before any syntax error, and whether the value is
// valid and anything but whitespace follows it.
func tokenWalk(data []byte) (dup, trailing bool) {
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return dup, false
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			if key, ok := tok.(string); ok {
				top := &stack[n-1]
				for _, k := range top.keys {
					dup = dup || strings.EqualFold(k, key)
				}
				top.keys = append(top.keys, key)
				top.wantKey = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value ended: the walk is done, or its object wants a key next.
		if len(stack) == 0 {
			break
		}
		stack[len(stack)-1].wantKey = stack[len(stack)-1].object
	}
	_, err := dec.Token()
	return dup, err != io.EOF
}

// floatBits appends the bits of every float64 reachable from v, in order.
func floatBits(v reflect.Value, bits []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		bits = append(bits, math.Float64bits(v.Float()))
	case reflect.Pointer:
		if !v.IsNil() {
			bits = floatBits(v.Elem(), bits)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			bits = floatBits(v.Index(i), bits)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			bits = floatBits(v.Field(i), bits)
		}
	}
	return bits
}

// FuzzJobSpan holds DecodeSubmissionKnown's job span and skip to the full
// decode. A lookup that never answers true changes nothing. On a miss,
// the span of an accepted body is exactly the job
// value, as encoding/json's RawMessage delimits it, a window of the input,
// and skipObject over it ends exactly at its end. Answering a lookup with
// the span, or with a fixed spec decoded elsewhere, must skip that value
// and decode everything else as the miss did: the same error, or none
// and the same tenant and arrival.
func FuzzJobSpan(f *testing.F) {
	known := []byte(sampleJSON)
	f.Add(`{"tenant":"a","arrival":12.5,"job":` + sampleJSON + `}`)
	for _, src := range []string{
		`{"job":` + sampleJSON + `,"tenant":"b"}`,
		`{"JOB": ` + sampleJSON + "\n}",
		`{"job":` + sampleJSON + `,"job":` + sampleJSON + `}`,
		`{"job":` + sampleJSON + `} x`,
		`{"job":` + sampleJSON + `,"owner":1}`,
		`{"job":{"name":"a\"}{[","stages":[{"id":1,"name":"\\","phases":{}}]}}`,
		`{"job":{"name":"\\"","stages":[]}}`,
		`{"job":{"stages":[{"id":1,"parents":[]}]},"arrival":-0}`,
		`{"job":{"stages":[}`,
		`{"job":null}`,
		`{"job":{}}`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		data := []byte(src)
		sub, span, err := DecodeSubmissionKnown(data, math.MaxInt, func([]byte) bool { return false })
		plain, perr := DecodeSubmission(data, math.MaxInt)
		if (perr == nil) != (err == nil) || err != nil && perr.Error() != err.Error() || !reflect.DeepEqual(plain, sub) {
			t.Fatalf("a lookup that never knows decoded %+v (%v), DecodeSubmission %+v (%v)", sub, err, plain, perr)
		}
		if err == nil && sub.Job != nil {
			var env struct{ Job json.RawMessage }
			if jerr := json.Unmarshal(data, &env); jerr != nil || !bytes.Equal(span, env.Job) {
				t.Fatalf("span %q, encoding/json's job value %q (%v)", span, env.Job, jerr)
			}
			if off := cap(data) - cap(span); off < 0 || off+len(span) > len(data) || &data[off] != &span[0] {
				t.Fatalf("span %q is not a window of the input", span)
			}
			if end := skipObject(span, 0); end != len(span) {
				t.Fatalf("skip of %q ends at %d, the decode at %d", span, end, len(span))
			}
		} else if span != nil {
			t.Fatalf("span %q without a decoded job (%v)", span, err)
		}
		for _, v := range [][]byte{span, known} {
			if v == nil {
				continue
			}
			hit := false
			got, gotSpan, gerr := DecodeSubmissionKnown(data, math.MaxInt, func(job []byte) bool {
				hit = bytes.Equal(job, v)
				return hit
			})
			if (gerr == nil) != (err == nil) || gerr != nil && gerr.Error() != err.Error() {
				t.Fatalf("lookup of %q: error %v, decoded %v", v, gerr, err)
			}
			if gerr != nil {
				continue
			}
			if hit && (got.Job != nil || !bytes.Equal(gotSpan, v)) {
				t.Fatalf("hit on %q decoded the job or spans %q", v, gotSpan)
			}
			if got.Tenant != sub.Tenant || (got.Arrival == nil) != (sub.Arrival == nil) ||
				got.Arrival != nil && math.Float64bits(*got.Arrival) != math.Float64bits(*sub.Arrival) {
				t.Fatalf("lookup of %q decoded %+v, the miss %+v", v, got, sub)
			}
			if !hit && !reflect.DeepEqual(got, sub) {
				t.Fatalf("a missed lookup decoded %+v, the plain decode %+v", got, sub)
			}
		}
	})
}
