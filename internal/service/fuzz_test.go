package service

import (
	"net/http"
	"net/http/httptest"
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
