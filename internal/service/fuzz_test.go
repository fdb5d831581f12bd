package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/jobspec"
	"delaystage/internal/workload"
)

// FuzzSubmitHTTP posts an arbitrary body to POST /v1/jobs, three times,
// on a fresh service behind a queue-depth cap of 1 (so a valid job's
// later posts are bounced), and requires after each post: no 5xx answer,
// submitted = admitted + rejected and live = admitted − done − failed,
// with the counters agreeing with the per-job states. A twin service is
// fed the same body through DecodeSubmission, Spec.Job and Submit, and
// must answer every post with the same code and body and end in the same
// state. A body whose job Spec.Job accepts is interned on its second post,
// so its third post reuses the interned job.
func FuzzSubmitHTTP(f *testing.F) {
	c := cluster.NewM4LargeCluster(10)
	job := workload.LDA(c, 0.1)
	for _, at := range []float64{0, 1, 2, 1e5} {
		f.Add(string(submitBodyFor(f, job, "a", at)))
	}
	for _, m := range malformedSubmits() {
		f.Add(m.body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		opt := Options{Cluster: c, Admission: QueueDepthCap{Max: 1}}
		s, twin := newTestService(t, opt), newTestService(t, opt)
		h := s.Handler()
		for post := 0; post < 3; post++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("post %d: status %d: %s", post, rec.Code, rec.Body)
			}
			if want := twinPost(twin, []byte(body)); rec.Code != want.Code || rec.Body.String() != want.Body.String() {
				t.Fatalf("post %d: %d %s\ntwin: %d %s", post, rec.Code, rec.Body, want.Code, want.Body)
			}
			cs := s.ClusterState()
			if !conserved(cs) {
				t.Fatalf("post %d: counters not conserved: %+v", post, cs)
			}
			jobs := s.Jobs()
			states := map[JobState]int{}
			for _, st := range jobs {
				states[st.State]++
			}
			if len(jobs) != cs.Submitted || states[StateRejected] != cs.Rejected ||
				states[StateDone] != cs.Done || states[StateFailed] != cs.Failed ||
				states[StateQueued]+states[StateRunning] != cs.Live {
				t.Fatalf("post %d: counters %+v disagree with the job states %v", post, cs, states)
			}
		}
		requireSameState(t, s, twin)
		hits := "0"
		if sub, err := jobspec.DecodeSubmission([]byte(body), maxSubmitStages); err == nil && sub.Job != nil {
			if _, err := sub.Job.Job(c); err == nil {
				hits = "1"
			}
		}
		if v := metricValue(t, s, `schedd_spec_intern_total{result="hit"}`); v != hits {
			t.Fatalf("%s intern hits over three posts, want %s", v, hits)
		}
	})
}

// FuzzSubmitResponseMatchesJSON holds the submit response's appender to
// encoding/json, as FuzzDecodeMatchesJSON holds the request decoder: for
// any JobStatus — every field, each omitempty field empty and set,
// arbitrary bytes in every string, and floats across ±0, subnormals and
// both sides of the 1e-6 and 1e21 format cutoffs — appendJobStatus writes
// the bytes of json.Encoder with SetIndent("", "  "). A NaN or ±Inf,
// which encoding/json rejects, takes writeJSON's fallback, so the answer
// to POST /v1/jobs (code, headers and body, for 200 and 429) is always
// writeJSON's.
func FuzzSubmitResponseMatchesJSON(f *testing.F) {
	// appendJobStatus and the fuzz body below list JobStatus's fields one
	// by one; a field added to the struct must be added to both, or the
	// submit answer would silently leave it out.
	if n := reflect.TypeOf(JobStatus{}).NumField(); n != 13 {
		f.Fatalf("JobStatus has %d fields, appendJobStatus writes 13", n)
	}
	f.Add("j-0", "LDA", "acme", "running", "", 12, 2.5, 0.0, 0.0, "template-cache", true, false, 0)
	f.Add("j-17", "", "", "rejected", "queue depth 0 ≥ cap 0", 0, -0.0, 2.5, 0.0, "", false, true, -3)
	f.Add("a\"b\\c\n\r\t\b\f\x00\x1f\x7f", "<script>&amp;</script>", "\xff\xfe\xc3", "done", "\u2028\u2029\ufffd\U0001F600", 186, 5e-324, 1e-6, 1e21, "planner", true, true, 1<<40)
	for _, v := range []float64{math.Nextafter(1e-6, 0), -1e-6, math.Nextafter(1e21, 0), -1e21, 1e300, -2.5e-308, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("j-1", "n", "t", "done", "r", 3, v, v, -v, "p", false, false, 7)
	}
	f.Fuzz(func(t *testing.T, id, name, tenant, state, reason string, stages int, arrival, end, jct float64, source string, hit, revised bool, epoch int) {
		st := JobStatus{ID: id, Name: name, Tenant: tenant, State: JobState(state), Reason: reason, Stages: stages,
			Arrival: arrival, End: end, JCT: jct, PlanSource: source, CacheHit: hit, Revised: revised, Epoch: epoch}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		encErr := enc.Encode(st)
		const prefix = "prefix"
		got, ok := appendJobStatus([]byte(prefix), st)
		finite := !slices.ContainsFunc([]float64{arrival, end, jct}, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
		switch {
		case ok != (encErr == nil) || ok != finite:
			t.Fatalf("appender ok=%v, encoding/json error %v, floats finite %v", ok, encErr, finite)
		case !ok && string(got) != prefix:
			t.Fatalf("a rejected status appended %q", got[len(prefix):])
		case ok && !bytes.Equal(got[len(prefix):], want.Bytes()):
			t.Fatalf("appender differs from encoding/json:\n got %q\nwant %q", got[len(prefix):], want.Bytes())
		}
		code := http.StatusOK
		if st.State == StateRejected {
			code = http.StatusTooManyRequests
		}
		viaAppender, viaJSON := httptest.NewRecorder(), httptest.NewRecorder()
		writeSubmitted(viaAppender, st, nil)
		writeJSON(viaJSON, code, st)
		if viaAppender.Code != viaJSON.Code || !reflect.DeepEqual(viaAppender.Header(), viaJSON.Header()) ||
			!bytes.Equal(viaAppender.Body.Bytes(), viaJSON.Body.Bytes()) {
			t.Fatalf("response differs from writeJSON: %d %v %q, want %d %v %q", viaAppender.Code, viaAppender.Header(),
				viaAppender.Body, viaJSON.Code, viaJSON.Header(), viaJSON.Body)
		}
	})
}
