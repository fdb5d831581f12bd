package service

import (
	"fmt"
	"math"
	"net/http"
	"sort"
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
// Collection follows the live data plane. Admitted runs are injected into
// one stepper per epoch and every engine event is stepped exactly once, so
// each record's per-stage observations (jobRecord.spans) accumulate from
// dispatch on and never need replaying. Span trees are built on demand:
// once a record is terminal nothing it holds changes, and buildTrace reads
// only the record for a terminal job, so every /v1/trace request rebuilds
// the same bytes. The trace log gets its one line when the job turns
// terminal (exportTrace), and decoding that line reproduces the live
// response byte for byte.
//
// Memory bounds: a record keeps its span data (O(stages)) for the job
// map's lifetime, no span tree is retained, and the timeline is a
// fixed-capacity ring.

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

// jobSpanData is one dispatched job's execution observation, folded from
// the live data plane's event stream.
type jobSpanData struct {
	firstSubmit float64 // first stage dispatch (queue-wait end); -1 unseen
	stages      map[dag.StageID]*stageSpanData
}

// stageSpanData tracks one stage's phase transitions. Per-node phases
// (read/compute) keep the last event's time — events arrive in simulated
// order, so that is the phase's completion across nodes. -1 = unseen.
type stageSpanData struct {
	ready, submitted    float64
	readEnd, computeEnd float64
	end                 float64
	prefetch            bool
	retries             int
}

func newJobSpanData() *jobSpanData {
	return &jobSpanData{firstSubmit: -1, stages: map[dag.StageID]*stageSpanData{}}
}

func (d *jobSpanData) stage(id dag.StageID) *stageSpanData {
	st := d.stages[id]
	if st == nil {
		st = &stageSpanData{ready: -1, submitted: -1, readEnd: -1, computeEnd: -1, end: -1}
		d.stages[id] = st
	}
	return st
}

// observeStage folds one engine event into the job's span data. Called
// from the epoch observer, under the service mutex.
func (d *jobSpanData) observeStage(ev sim.Event) {
	switch ev.Kind {
	case sim.EvStageReady:
		d.stage(ev.Stage).ready = ev.T
	case sim.EvStageSubmitted:
		st := d.stage(ev.Stage)
		st.submitted = ev.T
		st.prefetch = ev.Prefetch
		if d.firstSubmit < 0 {
			d.firstSubmit = ev.T
		}
	case sim.EvReadDone:
		d.stage(ev.Stage).readEnd = ev.T
	case sim.EvComputeDone:
		d.stage(ev.Stage).computeEnd = ev.T
	case sim.EvStageCompleted:
		d.stage(ev.Stage).end = ev.T
	case sim.EvTaskRetry:
		d.stage(ev.Stage).retries++
	}
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

// buildTrace assembles rec's span tree from the record and its span data,
// under the service mutex. A terminal record's tree depends on the record
// alone; a live one's open spans carry End = the data-plane clock and
// Open = true.
func (s *Service) buildTrace(rec *jobRecord) *obs.Trace {
	terminal := rec.state == StateDone || rec.state == StateFailed || rec.state == StateRejected
	st := rec.state
	if st == StateQueued && s.simClock >= rec.arrival {
		st = StateRunning
	}
	now := math.Max(s.simClock, rec.arrival)
	jobEnd, open := rec.end, false
	if !terminal {
		jobEnd, open = now, true
	}

	tr := &obs.Trace{
		Schema:  obs.TraceSchema,
		TraceID: rec.id,
		Job:     rec.name,
		Tenant:  rec.tenant,
		State:   string(st),
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

	sd := rec.spans
	fs := -1.0
	if sd != nil {
		fs = sd.firstSubmit
	}
	switch {
	case fs >= 0:
		add(root, obs.SpanQueue, "queue", rec.arrival, fs, false,
			map[string]any{"wait_seconds": fs - rec.arrival}, nil)
	case terminal:
		// Finished without dispatching a stage (failed before any submit).
		add(root, obs.SpanQueue, "queue", rec.arrival, rec.end, false, nil, nil)
	default:
		add(root, obs.SpanQueue, "queue", rec.arrival, now, true, nil, nil)
	}

	if sd != nil {
		ids := make([]dag.StageID, 0, len(sd.stages))
		for id := range sd.stages {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			stg := sd.stages[id]
			start := stg.ready
			if start < 0 {
				start = stg.submitted
			}
			end, stOpen := stg.end, false
			if end < 0 {
				end, stOpen = now, !terminal
				if terminal {
					end = rec.end
				}
			}
			attrs := map[string]any{}
			if stg.submitted >= 0 {
				attrs["submitted"] = stg.submitted
			}
			if stg.readEnd >= 0 {
				attrs["read_end"] = stg.readEnd
			}
			if stg.computeEnd >= 0 {
				attrs["compute_end"] = stg.computeEnd
			}
			if d := rec.delays[id]; d > 0 {
				attrs["delay"] = d
			}
			if stg.prefetch {
				attrs["prefetch"] = true
			}
			if stg.retries > 0 {
				attrs["retries"] = stg.retries
			}
			if p := rec.stageParents[id]; p != "" {
				attrs["parents"] = p
			}
			if len(attrs) == 0 {
				attrs = nil
			}
			add(root, obs.SpanStage, fmt.Sprintf("stage %d", id),
				start, end, stOpen, attrs, nil)
		}
	}
	return tr
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
