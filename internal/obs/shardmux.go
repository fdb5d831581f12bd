package obs

import (
	"reflect"
	"sync"

	"delaystage/internal/sim"
)

// RunLabeled is an exporter that stamps a run index on everything it
// records. JSONL and ChromeTracer implement it; it is what a ShardMux
// fans per-world event streams into.
type RunLabeled interface {
	sim.Observer
	SetRun(run int)
}

// ShardMux lets worlds that run concurrently on different goroutines
// (internal/shardsim) share one set of exporters. Each world gets its own
// buffering observer from Observer(i); the worker running that world
// appends events lock-free. Flush(i) writes world i's buffer to the sinks
// — SetRun(i) then every buffered event, exactly as a one-world-at-a-time
// loop would. The caller decides the order: shardsim's reduce runs in
// world-index order, so flushing from it yields artifacts byte-identical
// at any shard count.
//
// Nil sinks (including typed nils) are dropped, mirroring Multi; with no
// live sinks Observer returns nil and the engines skip emission entirely.
type ShardMux struct {
	sinks []RunLabeled

	mu   sync.Mutex
	bufs map[int]*muxBuf
}

// muxBuf buffers one world's events until it is flushed.
type muxBuf struct{ evs []sim.Event }

// OnEvent implements sim.Observer. No lock: only the goroutine running
// the world appends, and the handoff that publishes its result to the
// flushing goroutine publishes the slice too.
func (b *muxBuf) OnEvent(ev sim.Event) { b.evs = append(b.evs, ev) }

// NewShardMux returns a mux fanning into sinks.
func NewShardMux(sinks ...RunLabeled) *ShardMux {
	m := &ShardMux{bufs: map[int]*muxBuf{}}
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if v := reflect.ValueOf(s); v.Kind() == reflect.Pointer && v.IsNil() {
			continue
		}
		m.sinks = append(m.sinks, s)
	}
	return m
}

// Observer returns world run's buffering observer (nil when no sinks are
// attached). Call it from the world builder, on the goroutine that will
// run the world.
func (m *ShardMux) Observer(run int) sim.Observer {
	if len(m.sinks) == 0 {
		return nil
	}
	b := &muxBuf{}
	m.mu.Lock()
	m.bufs[run] = b
	m.mu.Unlock()
	return b
}

// Flush writes world run's buffered events to the sinks under its run
// label and releases the buffer. Call it once per world, after the world
// finished, from one goroutine at a time.
func (m *ShardMux) Flush(run int) {
	m.mu.Lock()
	b := m.bufs[run]
	delete(m.bufs, run)
	m.mu.Unlock()
	if b == nil {
		return
	}
	for _, s := range m.sinks {
		s.SetRun(run)
	}
	for _, ev := range b.evs {
		for _, s := range m.sinks {
			s.OnEvent(ev)
		}
	}
}
