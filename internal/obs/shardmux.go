package obs

import (
	"reflect"
	"sync"

	"delaystage/internal/sim"
)

// RunLabeled is an exporter that stamps a run index on everything it
// records. JSONL and ChromeTracer implement it; it is what a ShardMux
// fans merged multi-world event streams into.
type RunLabeled interface {
	sim.Observer
	SetRun(run int)
}

// ShardMux merges the event streams of n independently-stepped worlds
// (internal/shardsim) back into world-index order — the order running the
// worlds one after another would emit — so a sharded replay produces event
// and Chrome-trace artifacts byte-identical at any shard/worker count.
//
// Each world gets its own buffering observer from Observer(i); the worker
// draining that world appends events lock-free (a world is stepped by one
// goroutine at a time). When shardsim's deterministic index-order reduce
// reaches world i, call Flush(i): the mux marks the world complete and
// drains the in-order prefix of finished worlds into the sinks —
// SetRun(i) then every buffered event, exactly as a one-world-at-a-time
// loop would. Worlds that finish out of order are held until their turn,
// so sink output never interleaves.
//
// Nil sinks (including typed nils) are dropped, mirroring Multi; with no
// live sinks Observer returns nil and the engines skip emission entirely.
type ShardMux struct {
	n     int
	sinks []RunLabeled

	mu   sync.Mutex
	bufs map[int]*muxBuf
	next int
}

// muxBuf buffers one world's events until its index-order turn.
type muxBuf struct {
	evs  []sim.Event
	done bool
}

// OnEvent implements sim.Observer. No lock: only the goroutine currently
// stepping the world appends, and the mutex acquire/release in Flush
// publishes the slice to whichever goroutine later drains it.
func (b *muxBuf) OnEvent(ev sim.Event) { b.evs = append(b.evs, ev) }

// NewShardMux returns a mux for n worlds fanning into sinks.
func NewShardMux(n int, sinks ...RunLabeled) *ShardMux {
	m := &ShardMux{n: n, bufs: map[int]*muxBuf{}}
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

// Active reports whether any live sink is attached — callers can skip
// mux wiring entirely when not.
func (m *ShardMux) Active() bool { return len(m.sinks) > 0 }

// Observer returns world run's buffering observer (nil when no sinks are
// attached). Call it from the world builder, on the goroutine that will
// step the world.
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

// Flush marks world run complete and drains every consecutive finished
// world from the current index-order frontier into the sinks. Call it
// from the reduce step (shardsim guarantees one call per world).
func (m *ShardMux) Flush(run int) {
	if len(m.sinks) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b := m.bufs[run]; b != nil {
		b.done = true
	}
	for m.next < m.n {
		b := m.bufs[m.next]
		if b == nil || !b.done {
			break
		}
		for _, s := range m.sinks {
			s.SetRun(m.next)
		}
		for _, ev := range b.evs {
			for _, s := range m.sinks {
				s.OnEvent(ev)
			}
		}
		delete(m.bufs, m.next)
		m.next++
	}
}
