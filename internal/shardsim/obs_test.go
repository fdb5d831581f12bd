package shardsim

import (
	"bytes"
	"testing"

	"delaystage/internal/obs"
	"delaystage/internal/sim"
)

// exportWorlds runs n fresh testWorlds through the given shard count
// with an obs.ShardMux fanning into a JSONL exporter and a Chrome tracer,
// and returns both artifacts. shards == 0 means the sequential reference
// path: plain sim.Run per world, run labels stamped in index order.
func exportWorlds(t *testing.T, n, shards int) (events, chrome []byte) {
	t.Helper()
	worlds := testWorlds(t, n)
	var evBuf, chBuf bytes.Buffer
	jsonl := obs.NewJSONL(&evBuf)
	tracer := obs.NewChromeTracer()

	if shards == 0 {
		for i := range worlds {
			jsonl.SetRun(i)
			tracer.SetRun(i)
			worlds[i].Opt.Observer = obs.Multi(jsonl, tracer)
			if _, err := sim.Run(worlds[i].Opt, worlds[i].Runs); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		mux := obs.NewShardMux(jsonl, tracer)
		err := Run(Config{Shards: shards}, n,
			func(i int) (World, error) {
				w := worlds[i]
				w.Opt.Observer = mux.Observer(i)
				return w, nil
			},
			func(i int, res *sim.Result) error {
				mux.Flush(i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Write(&chBuf); err != nil {
		t.Fatal(err)
	}
	return evBuf.Bytes(), chBuf.Bytes()
}

// TestShardedEventExportByteIdentical: a sharded run with per-world mux
// observers emits JSONL event logs and Chrome traces byte-identical to the
// sequential single-engine path, at any shard count, chaos regime
// included. Run under -race in CI this also exercises the mux's
// cross-goroutine handoff.
func TestShardedEventExportByteIdentical(t *testing.T) {
	const n = 9
	refEv, refCh := exportWorlds(t, n, 0)
	if len(refEv) == 0 || bytes.Count(refEv, []byte{'\n'}) < n {
		t.Fatalf("reference export suspiciously small: %d bytes", len(refEv))
	}
	for _, shards := range []int{1, 3, 8} {
		ev, ch := exportWorlds(t, n, shards)
		if !bytes.Equal(refEv, ev) {
			t.Errorf("shards=%d: JSONL events differ from sequential reference", shards)
		}
		if !bytes.Equal(refCh, ch) {
			t.Errorf("shards=%d: Chrome trace differs from sequential reference", shards)
		}
	}
}

// TestShardMuxNilSinks: with no live sinks (including typed nils) the mux
// hands the engines nil observers, keeping the no-observation fast path.
func TestShardMuxNilSinks(t *testing.T) {
	var jsonl *obs.JSONL
	var tracer *obs.ChromeTracer
	mux := obs.NewShardMux(jsonl, tracer, nil)
	if o := mux.Observer(0); o != nil {
		t.Errorf("Observer with no sinks = %v, want nil", o)
	}
	mux.Flush(0) // must not panic
}

// TestShardMuxOutOfOrderFlush: the mux holds nothing back. Whatever order
// events arrive in across worlds, Flush(i) writes world i's buffer straight
// to the sinks under run label i and releases it; flush order is the
// caller's, and shardsim's in-order reduce makes it index order.
func TestShardMuxOutOfOrderFlush(t *testing.T) {
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	mux := obs.NewShardMux(jsonl)
	obs0, obs1, obs2 := mux.Observer(0), mux.Observer(1), mux.Observer(2)
	ev := func(t float64, job int) sim.Event {
		return sim.Event{T: t, Kind: sim.EvJobDone, Job: job, Stage: -1, Node: -1}
	}
	obs2.OnEvent(ev(30, 2))
	obs0.OnEvent(ev(10, 0))
	obs1.OnEvent(ev(20, 1))
	mux.Flush(1)
	mux.Flush(0)
	mux.Flush(2)
	mux.Flush(1) // released: writes nothing
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":20,"kind":"job_done","run":1,"job":1}` + "\n" +
		`{"t":10,"kind":"job_done","run":0,"job":0}` + "\n" +
		`{"t":30,"kind":"job_done","run":2,"job":2}` + "\n"
	if buf.String() != want {
		t.Errorf("flushed log:\n%s\nwant:\n%s", buf.String(), want)
	}
}
