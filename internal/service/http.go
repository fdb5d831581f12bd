package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"delaystage/internal/jobspec"
	"delaystage/internal/obs"
	"delaystage/internal/scheduler"
)

// HTTP/JSON API, layered on the obs introspection mux:
//
//	POST /v1/jobs       submit {"tenant","arrival","job":{jobspec}}
//	GET  /v1/jobs       all submissions
//	GET  /v1/jobs/{id}  one submission's status
//	GET  /v1/plan/{id}  the chosen delay vector
//	GET  /v1/trace/{id} the job's lifecycle span tree with decision audit
//	GET  /v1/timeline   the bounded scheduler-milestone ring
//	GET  /v1/cluster    live data-plane state
//	GET  /metrics       Prometheus text (plus /healthz, /debug/pprof/*)
//
// Submit returns 200 on acceptance, 429 on an admission bounce (body
// carries the policy's reason), 400 on malformed input — including the
// NaN/Inf arrival vetting shared with the planner and DAGs over
// maxSubmitStages — and 413 on a body over maxSubmitBytes. A job that was
// admitted but could not be planned or dispatched (for example, one that
// cannot finish inside the simulator's horizon) answers 422; unlike a
// 400, it is counted, as admitted and failed.

// maxSubmitBytes bounds a POST /v1/jobs body; a 186-stage DAG's jobspec
// encodes to about 29 KB.
const maxSubmitBytes = 8 << 20

// maxSubmitStages bounds a submitted DAG: planning cost grows
// superlinearly in the stage count, and the largest trace job has 186
// stages.
const maxSubmitStages = 1024

// errorBody is every non-2xx response payload.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API with the introspection endpoints
// layered in, ready for obs.ServeHandler or httptest.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/plan/{id}", s.handlePlan)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/timeline", s.handleTimeline)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.Handle("/", obs.NewIntrospectionMux(s.reg))
	return s.instrument(mux)
}

// instrument wraps the mux with a per-request counter by method and status
// code. Each (method, code) series is resolved in the registry once and
// reused, so a request neither formats its label nor looks it up.
func (s *Service) instrument(next http.Handler) http.Handler {
	type series struct {
		method string
		code   int
	}
	var mu sync.Mutex
	counters := map[series]*obs.Counter{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(cw, r)
		k := series{r.Method, cw.code}
		mu.Lock()
		c := counters[k]
		if c == nil {
			c = s.reg.Counter("schedd_http_requests_total",
				fmt.Sprintf("{method=%q,code=\"%d\"}", k.method, k.code),
				"HTTP requests by method and status code.")
			counters[k] = c
		}
		mu.Unlock()
		c.Inc()
	})
}

// codeWriter records the status code written to a ResponseWriter.
type codeWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// handleSubmit reads the body whole and decodes it with
// jobspec.DecodeSubmissionKnown, which stops at stage maxSubmitStages+1.
// A job value byte-equal to an interned one is skipped and its interned
// job reused; any other job is built and validated by Spec.Job, and then
// interned.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(http.MaxBytesReader(w, r.Body, maxSubmitBytes), r.ContentLength)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("read request: %w", err))
		return
	}
	var facts *specFacts
	var lookup func([]byte) bool
	if s.specs != nil {
		lookup = func(v []byte) bool {
			facts = s.specs.get(v)
			return facts != nil
		}
	}
	body, raw, err := jobspec.DecodeSubmissionKnown(data, maxSubmitStages, lookup)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	switch {
	case facts != nil:
		s.mInternHit.Inc()
	case body.Job == nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing \"job\""))
		return
	default:
		job, err := body.Job.Job(s.opt.Cluster)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		facts = newSpecFacts(job)
		if s.specs != nil {
			s.mInternMiss.Inc()
			s.gInternSize.Set(float64(s.specs.put(raw, facts)))
		}
	}
	st, err := s.submit(s.clock(), body.Tenant, body.Arrival, facts)
	writeSubmitted(w, st, err)
}

// writeSubmitted answers a submission with Submit's outcome: 200 with the
// job's status, 429 with it when admission bounced the job, 400 on an
// invalid arrival, 422 for an admitted job that failed, else 500.
func writeSubmitted(w http.ResponseWriter, st JobStatus, err error) {
	if err != nil {
		code := http.StatusInternalServerError
		var ae *scheduler.InvalidArrivalError
		var jf *jobFailedError
		switch {
		case errors.As(err, &ae):
			code = http.StatusBadRequest
		case errors.As(err, &jf):
			code = http.StatusUnprocessableEntity
		}
		writeError(w, code, err)
		return
	}
	code := http.StatusOK
	if st.State == StateRejected {
		code = http.StatusTooManyRequests
	}
	bp := submitBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= 4<<10 {
			submitBufs.Put(bp)
		}
	}()
	b, ok := appendJobStatus((*bp)[:0], st)
	*bp = b
	if !ok {
		writeJSON(w, code, st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// submitBufs recycles writeSubmitted's response buffers.
var submitBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendJobStatus appends st as writeJSON writes it — json.Encoder with
// SetIndent("", "  "), trailing newline included — without reflection. It
// reports false, having appended nothing, for a float encoding/json
// rejects (NaN or ±Inf); FuzzSubmitResponseMatchesJSON holds the rest to
// encoding/json.
func appendJobStatus(b []byte, st JobStatus) ([]byte, bool) {
	start, ok := len(b), true
	key := func(k string) {
		b = append(b, ",\n  \""...)
		b = append(b, k...)
		b = append(b, "\": "...)
	}
	str := func(k, v string) {
		key(k)
		b = obs.AppendJSONString(b, v)
	}
	num := func(k string, v float64) {
		key(k)
		var finite bool
		b, finite = obs.AppendJSONFloat(b, v)
		ok = ok && finite
	}
	b = append(b, "{\n  \"id\": "...)
	b = obs.AppendJSONString(b, st.ID)
	str("name", st.Name)
	if st.Tenant != "" {
		str("tenant", st.Tenant)
	}
	str("state", string(st.State))
	if st.Reason != "" {
		str("reason", st.Reason)
	}
	key("stages")
	b = strconv.AppendInt(b, int64(st.Stages), 10)
	num("arrival", st.Arrival)
	if st.End != 0 {
		num("end", st.End)
	}
	if st.JCT != 0 {
		num("jct", st.JCT)
	}
	if !ok {
		return b[:start], false
	}
	if st.PlanSource != "" {
		str("plan_source", st.PlanSource)
	}
	if st.CacheHit {
		key("cache_hit")
		b = append(b, "true"...)
	}
	if st.Revised {
		key("revised")
		b = append(b, "true"...)
	}
	key("epoch")
	b = strconv.AppendInt(b, int64(st.Epoch), 10)
	return append(b, "\n}\n"...), true
}

// readBody is io.ReadAll starting from a buffer of the body's declared
// size, so that a body of known length is read in one allocation.
func readBody(body io.Reader, size int64) ([]byte, error) {
	if size < 0 || size > maxSubmitBytes {
		size = 512
	}
	b := make([]byte, 0, size+1) // +1: room for the read that returns io.EOF
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

func (s *Service) handleJobs(w http.ResponseWriter, _ *http.Request) {
	if err := s.Sync(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if err := s.Sync(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	ps, ok := s.Plan(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no plan for job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, ps)
}

func (s *Service) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if err := s.Sync(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.ClusterState())
}
