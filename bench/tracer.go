package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions. Spans of one request or job share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 = none
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are microseconds since the traced pass began.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	// Allocs and Bytes are the process-wide heap allocations made while
	// the span was open (exact for the single-goroutine replay pass; the
	// schedd pass is closed-loop, so one goroutine runs at a time).
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"alloc_bytes"`
	// Shadow marks work the benchmark repeats only to measure a layer the
	// program runs internally; it is excluded from the tracing overhead.
	Shadow bool `json:"shadow,omitempty"`

	allocs0, bytes0 uint64
}

// tracer keeps spans in memory and counts events at the same boundaries.
// A nil *tracer records nothing, so the untraced pass runs the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
	rm     [2]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), counts: map[string]float64{}}
	t.rm[0].Name = "/gc/heap/allocs:objects"
	t.rm[1].Name = "/gc/heap/allocs:bytes"
	return t
}

// readAllocs reads the cumulative allocation counters; t.mu must be held.
func (t *tracer) readAllocs() (uint64, uint64) {
	metrics.Read(t.rm[:])
	return t.rm[0].Value.Uint64(), t.rm[1].Value.Uint64()
}

func (t *tracer) since(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, req int) int {
	return t.open(name, layer, parent, req, false)
}

// beginShadow opens a span around measurement-only work.
func (t *tracer) beginShadow(name, layer string, parent, req int) int {
	return t.open(name, layer, parent, req, true)
}

func (t *tracer) open(name, layer string, parent, req int, shadow bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	sp := span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Shadow: shadow}
	sp.allocs0, sp.bytes0 = t.readAllocs()
	sp.Start = t.since(time.Now())
	t.spans = append(t.spans, sp)
	return id
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	a, b := t.readAllocs()
	sp := &t.spans[id]
	sp.End = t.since(now)
	sp.Allocs, sp.Bytes = a-sp.allocs0, b-sp.bytes0
}

// inner records a child span of known duration that ended when its parent
// ended: the program measured it itself (a plan's WallSeconds) and the
// benchmark cannot see its start.
func (t *tracer) inner(name, layer string, parent, req int, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	end := p.End
	start := end - float64(d.Nanoseconds())/1e3
	if start < p.Start {
		start = p.Start
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Layer: layer, Start: start, End: end})
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// durations returns the duration, in µs, of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// spanMean is the mean of span durations, 0 when the layer did no work.
func spanMean(ds []float64) float64 { return ratio(sum(ds), float64(len(ds))) }

// layerStats sums per layer: self time (a span's duration minus its
// children's), span count and allocations made in the layer's own code;
// shadow is the total time of shadow spans.
type layerStats struct {
	self   map[string]time.Duration
	allocs map[string]uint64
	shadow time.Duration
}

func (t *tracer) layers() layerStats {
	ls := layerStats{self: map[string]time.Duration{}, allocs: map[string]uint64{}}
	childDur := make([]float64, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			childDur[sp.Parent] += sp.End - sp.Start
			childAllocs[sp.Parent] += sp.Allocs
		}
	}
	for i, sp := range t.spans {
		d := sp.End - sp.Start
		self := d - childDur[i]
		if self < 0 {
			self = 0
		}
		ls.self[sp.Layer] += time.Duration(self * 1e3)
		if sp.Allocs > childAllocs[i] {
			ls.allocs[sp.Layer] += sp.Allocs - childAllocs[i]
		}
		if sp.Shadow && sp.Parent < 0 {
			ls.shadow += time.Duration(d * 1e3)
		}
	}
	return ls
}

// selfShares turns layer self times into shares of the traced wall time
// for every layer the per-layer table names; whatever no span covers is
// charged to the benchmark itself.
func selfShares(m map[string]float64, ls layerStats, wall time.Duration) {
	covered := time.Duration(0)
	for _, layer := range []string{"http", "jobspec", "service", "planner", "cache", "cluster", "trace",
		"core", "perfmodel", "sim", "shardsim"} {
		m[layer+".self_pct"] = 100 * ls.self[layer].Seconds() / wall.Seconds()
		covered += ls.self[layer]
	}
	m["bench.self_pct"] = 100 * (wall - covered).Seconds() / wall.Seconds()
}

// layerMetrics starts a traced run's per-layer metrics: each is 0 until
// the workload fills in its own layers (a layer the workload never calls
// did no work), plus the self-time shares of the traced pass's wall time
// and the tracing overhead — the traced pass's extra wall time over the
// untraced pass of the same replay, shadow work excluded.
func layerMetrics(oc *outcome, tr *tracer, traced, untraced time.Duration) (layerStats, map[string]float64) {
	ls := tr.layers()
	m := oc.metrics
	for _, s := range perLayer {
		m[s.name] = 0
	}
	selfShares(m, ls, traced)
	m["bench.tracing_overhead_pct"] = 100 * ((traced-ls.shadow).Seconds()/untraced.Seconds() - 1)
	oc.note("traced pass %.3fs (shadow work %.3fs), untraced pass %.3fs",
		traced.Seconds(), ls.shadow.Seconds(), untraced.Seconds())
	oc.spans = tr
	return ls, m
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rate is n per second of d, 0 when the layer did no work.
func rate(n float64, d time.Duration) float64 {
	if n == 0 || d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
