package service

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/workload"
)

// TestJobLogLines pins the JSON lines a submission logs: planned and done
// for an admitted job, rejected for a bounced one.
func TestJobLogLines(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	}))
	body := submitBodyFor(t, workload.LDA(c, 0.1), "acme", 2.5)
	s := newTestService(t, Options{Cluster: c, Logger: logger})
	post := func(s *Service) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec.Code
	}
	if code := post(s); code != http.StatusOK {
		t.Fatalf("POST: %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	bounced := newTestService(t, Options{Cluster: c, Logger: logger, Admission: QueueDepthCap{}})
	if code := post(bounced); code != http.StatusTooManyRequests {
		t.Fatalf("POST: %d", code)
	}
	const want = `{"level":"INFO","msg":"job planned","trace_id":"j-0","tenant":"acme","arrival":2.5,"source":"planner","delays":2,"queue_depth":0}
{"level":"INFO","msg":"job done","trace_id":"j-0","t":57.511722666666664,"jct":55.011722666666664}
{"level":"INFO","msg":"job rejected","trace_id":"j-0","tenant":"acme","policy":"queue-depth-cap","reason":"queue depth 0 ≥ cap 0"}
`
	if got := buf.String(); got != want {
		t.Fatalf("log lines:\n%s\nwant:\n%s", got, want)
	}
}
