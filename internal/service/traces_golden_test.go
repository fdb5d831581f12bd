package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"delaystage/internal/golden"
)

// traceBody renders a job's GET /v1/trace body as one compact JSON line,
// with the plan span's wall_seconds (the one nondeterministic field)
// zeroed.
func traceBody(t *testing.T, s *Service, id string) string {
	t.Helper()
	tr, ok := s.Trace(id)
	if !ok {
		t.Fatalf("no trace for %s", id)
	}
	for i := range tr.Spans {
		if a := tr.Spans[i].Audit; a != nil {
			c := *a
			c.WallSeconds = 0
			tr.Spans[i].Audit = &c
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, tr)
	var b bytes.Buffer
	if err := json.Compact(&b, rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// traceGoldenLines runs the forEachBusyLoad loads and renders: after
// every fifth submission, the live trace of each job still running; once
// a run has drained, every job's terminal trace and the queue-wait and
// end-to-end histograms' sum and count lines.
func traceGoldenLines(t *testing.T) []string {
	t.Helper()
	var out []string
	forEachBusyLoad(t, func(run string, s *Service, i int) {
		if (i+1)%5 != 0 {
			return
		}
		for _, rec := range s.history {
			if st := s.snapshot(rec).State; st == StateQueued || st == StateRunning {
				out = append(out, fmt.Sprintf("%s/%02d live %s %s", run, i, rec.id, traceBody(t, s, rec.id)))
			}
		}
	}, func(run string, s *Service) {
		for _, rec := range s.history {
			out = append(out, fmt.Sprintf("%s terminal %s %s", run, rec.id, traceBody(t, s, rec.id)))
		}
		var metrics strings.Builder
		if err := s.Registry().WriteText(&metrics); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(metrics.String(), "\n") {
			for _, name := range []string{"schedd_queue_wait_seconds", "schedd_e2e_seconds"} {
				if strings.HasPrefix(line, name+"_sum ") || strings.HasPrefix(line, name+"_count ") {
					out = append(out, run+" metric "+line)
				}
			}
		}
	})
	return out
}

// TestTracesGolden pins the daemon's job traces byte for byte: the
// terminal /v1/trace body of every job under the gallery, both Poisson and
// the replay loads, with and without the template cache; the live traces,
// open spans and all, of the jobs running after every fifth submission;
// and the queue-wait and end-to-end histogram totals. Run with -update to
// regenerate after an intended trace change.
func TestTracesGolden(t *testing.T) {
	lines := traceGoldenLines(t)
	openStage := regexp.MustCompile(`"kind":"stage"[^}]*"open":true`)
	live := 0
	for _, l := range lines {
		if strings.Contains(l, " live ") && openStage.MatchString(l) {
			live++
		}
	}
	if live < 100 {
		t.Fatalf("vacuous: only %d live traces with an open stage span", live)
	}
	golden.Check(t, "testdata/traces.golden", []byte(strings.Join(lines, "\n")+"\n"))
}
