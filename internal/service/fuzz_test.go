package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/workload"
)

// FuzzSubmitHTTP posts an arbitrary body to POST /v1/jobs, twice, on a
// fresh service behind a queue-depth cap of 1 (so the second post of a
// valid job is bounced), and requires after each post: no 5xx answer,
// submitted = admitted + rejected and live = admitted − done − failed,
// with the counters agreeing with the per-job states.
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
		s := newTestService(t, Options{Cluster: c, Admission: QueueDepthCap{Max: 1}})
		h := s.Handler()
		for post := 0; post < 2; post++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("post %d: status %d: %s", post, rec.Code, rec.Body)
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
	})
}
