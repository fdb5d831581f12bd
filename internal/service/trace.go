package service

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"delaystage/internal/dag"
	"delaystage/internal/obs"
	"delaystage/internal/sim"
)

// Job-lifecycle tracing: every submission is followed from the requested
// instant through admission, planning, queue wait and per-stage execution
// to its terminal state, and rendered as an obs.Trace span tree.
//
// Stage spans are the engine's own stage timelines: while a job runs,
// buildTrace reads each stage's live milestones from the epoch's stepper
// (sim.Stepper.Timeline), and when the job turns terminal markTerminal
// keeps a copy on its record, which outlives the epoch's world. Span trees
// are built on demand: once a record is terminal nothing it holds
// changes, and buildTrace reads only the record for a terminal job, so
// every /v1/trace request rebuilds the same bytes. The trace log gets its
// one line when the job turns terminal (exportTrace), and decoding that
// line reproduces the live response byte for byte.
//
// Memory bounds: a terminal record keeps one timeline per reached stage
// (O(stages)) for the job map's lifetime, no span tree is retained, and
// the timeline is a fixed-capacity ring.

// TimelineSchema identifies the GET /v1/timeline response format.
const TimelineSchema = "delaystage/timeline/v1"

// TimelineEvent is one entry of the service's bounded event ring: the
// scheduler-level milestones (not the raw engine stream), newest last.
// Seq increases monotonically across the daemon's lifetime, so a client
// polling the ring can detect both gaps and overlap.
type TimelineEvent struct {
	Seq    int     `json:"seq"`
	T      float64 `json:"t"` // simulated seconds
	Kind   string  `json:"kind"`
	Job    string  `json:"job,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// TimelineStatus is the GET /v1/timeline response.
type TimelineStatus struct {
	Schema   string          `json:"schema"`
	Epoch    int             `json:"epoch"`
	SimClock float64         `json:"sim_clock"`
	Dropped  int             `json:"dropped"` // events evicted by the ring bound
	Events   []TimelineEvent `json:"events"`
}

// stageParents renders a job's DAG edges as compact per-stage parent
// lists ("0,1"), stored on the record at submit so traces don't retain
// the workload.
func stageParents(g *dag.Graph) map[dag.StageID]string {
	out := make(map[dag.StageID]string, g.Len())
	for _, id := range g.StagesView() {
		ps := g.Parents(id)
		if len(ps) == 0 {
			continue
		}
		var b strings.Builder
		for i, p := range ps {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(p)))
		}
		out[id] = b.String()
	}
	return out
}

// buildTrace assembles rec's span tree from the record and its stages'
// timelines, under the service mutex. A terminal record's tree depends on
// the record alone; a live one's open spans carry End = the data-plane
// clock and Open = true.
func (s *Service) buildTrace(rec *jobRecord) *obs.Trace {
	terminal := rec.state == StateDone || rec.state == StateFailed || rec.state == StateRejected
	jobEnd, open := rec.end, false
	if !terminal {
		jobEnd, open = math.Max(s.simClock, rec.arrival), true
	}

	tr := &obs.Trace{
		Schema:  obs.TraceSchema,
		TraceID: rec.id,
		Job:     rec.name,
		Tenant:  rec.tenant,
		State:   string(s.snapshot(rec).State),
		Epoch:   rec.epoch,
	}
	add := func(parent int, kind, name string, start, end float64, isOpen bool, attrs map[string]any, audit *obs.DecisionAudit) int {
		id := len(tr.Spans)
		tr.Spans = append(tr.Spans, obs.Span{
			ID: id, Parent: parent, Kind: kind, Name: name,
			Start: start, End: end, Open: isOpen, Attrs: attrs, Audit: audit,
		})
		return id
	}

	root := add(-1, obs.SpanJob, "job "+rec.id, rec.requested, jobEnd, open,
		map[string]any{"stages": rec.stages}, nil)

	subAttrs := map[string]any{"requested": rec.requested}
	if rec.clamped {
		subAttrs["clamped"] = true
	}
	add(root, obs.SpanSubmit, "submit", rec.requested, rec.arrival, false, subAttrs, nil)

	admAttrs := map[string]any{
		"policy":      s.admission.Name(),
		"accepted":    rec.state != StateRejected,
		"queue_depth": rec.queueDepth,
	}
	if rec.state == StateRejected {
		admAttrs["reason"] = rec.reason
	}
	add(root, obs.SpanAdmission, "admission", rec.arrival, rec.arrival, false, admAttrs, nil)

	if rec.state == StateRejected {
		return tr
	}
	if rec.audit == nil {
		// Admitted but planning errored out: the failure is the plan span.
		add(root, obs.SpanPlan, "plan", rec.arrival, rec.arrival, false,
			map[string]any{"error": rec.reason}, nil)
		return tr
	}
	add(root, obs.SpanPlan, "plan", rec.arrival, rec.arrival, false, nil, rec.audit)

	tls := rec.timelines
	if !terminal {
		tls = s.liveTimelines(rec)
	}
	if fs := firstSubmit(tls); reached(fs) {
		add(root, obs.SpanQueue, "queue", rec.arrival, fs, false,
			map[string]any{"wait_seconds": fs - rec.arrival}, nil)
	} else {
		// No stage dispatched yet, or the job failed before one was.
		add(root, obs.SpanQueue, "queue", rec.arrival, jobEnd, open, nil, nil)
	}

	for _, tl := range tls {
		start := tl.Ready
		if !reached(start) {
			start = tl.Start
		}
		end, stOpen := tl.End, false
		if !reached(end) {
			end, stOpen = jobEnd, open
		}
		attrs := map[string]any{}
		if reached(tl.Start) {
			attrs["submitted"] = tl.Start
		}
		if reached(tl.ReadEnd) {
			attrs["read_end"] = tl.ReadEnd
		}
		if reached(tl.ComputeEnd) {
			attrs["compute_end"] = tl.ComputeEnd
		}
		if d := rec.delays[tl.Stage]; d > 0 {
			attrs["delay"] = d
		}
		if tl.Retries > 0 {
			attrs["retries"] = tl.Retries
		}
		if p := rec.stageParents[tl.Stage]; p != "" {
			attrs["parents"] = p
		}
		if len(attrs) == 0 {
			attrs = nil
		}
		add(root, obs.SpanStage, fmt.Sprintf("stage %d", tl.Stage),
			start, end, stOpen, attrs, nil)
	}
	return tr
}

// liveTimelines reads the timelines of a running record's stages that
// have reached a milestone from the epoch's stepper, in ascending stage
// ID. The stepper reports an unreached milestone as +Inf.
func (s *Service) liveTimelines(rec *jobRecord) []sim.StageTimeline {
	order := rec.graph.IDOrderPos()
	out := make([]sim.StageTimeline, 0, len(order))
	for _, p := range order {
		if tl, ok := s.stepper.Timeline(rec.run, p); ok {
			out = append(out, tl)
		}
	}
	return out
}

// reached reports whether a stage milestone read from the engine has
// happened.
func reached(t float64) bool { return !math.IsInf(t, 1) }

// firstSubmit is the earliest stage submission in tls, the end of the
// job's queue wait, or +Inf before any.
func firstSubmit(tls []sim.StageTimeline) float64 {
	fs := math.Inf(1)
	for _, tl := range tls {
		fs = math.Min(fs, tl.Start)
	}
	return fs
}

// exportTrace writes a just-terminal record's span tree to the trace log,
// if there is one; it runs once per job (markTerminal, or Submit for jobs
// that never reach the data plane).
func (s *Service) exportTrace(rec *jobRecord) {
	if s.traceLog == nil {
		return
	}
	if err := obs.WriteTraceLine(s.traceLog, *s.buildTrace(rec)); err != nil {
		s.logger.Error("trace export failed", "trace_id", rec.id, "err", err.Error())
	}
}

// timelineAdd records one milestone in the bounded ring. The event with
// sequence number n lives at index n % tlCap, so once the ring is full
// each add overwrites the oldest entry in place.
func (s *Service) timelineAdd(t float64, kind, job, detail string) {
	ev := TimelineEvent{Seq: s.tlSeq, T: t, Kind: kind, Job: job, Detail: detail}
	if len(s.timeline) < s.tlCap {
		s.timeline = append(s.timeline, ev)
	} else {
		s.timeline[s.tlSeq%s.tlCap] = ev
	}
	s.tlSeq++
}

// Trace builds a job's lifecycle span tree: the final tree for terminal
// jobs, the same on every call and identical to the exported one, and a
// live partial tree (open spans) otherwise.
func (s *Service) Trace(id string) (obs.Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return obs.Trace{}, false
	}
	return *s.buildTrace(rec), true
}

// Timeline snapshots the service's bounded milestone ring.
func (s *Service) Timeline() TimelineStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.timeline)
	out := TimelineStatus{
		Schema:   TimelineSchema,
		Epoch:    s.epoch,
		SimClock: s.simClock,
		Dropped:  s.tlSeq - n,
	}
	if n > 0 {
		// The oldest entry sits at the next write index: tlSeq % n is 0
		// while the ring is filling (tlSeq == n) and tlSeq % tlCap once
		// it is full (n == tlCap).
		oldest := s.tlSeq % n
		out.Events = append(append(make([]TimelineEvent, 0, n), s.timeline[oldest:]...), s.timeline[:oldest]...)
	}
	return out
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	if err := s.Sync(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	tr, ok := s.Trace(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (s *Service) handleTimeline(w http.ResponseWriter, _ *http.Request) {
	if err := s.Sync(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.Timeline())
}
