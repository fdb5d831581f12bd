package replay

import (
	"bytes"
	"math/rand"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/shardsim"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// unevenWorlds mixes worlds that finish far out of index order: the
// PageRank gallery job on 8 m4.large nodes at every fifth index, tiny
// trace jobs on two-machine slices elsewhere, and at every third index a
// fault plan that makes some jobs exhaust their single attempt, so the fold
// sees failed jobs too.
func unevenWorlds(t *testing.T, n int) []shardsim.World {
	t.Helper()
	tr := trace.Generate(trace.GenConfig{Jobs: n, Seed: 6, MaxStages: 6})
	rng := rand.New(rand.NewSource(6))
	worlds := make([]shardsim.World, n)
	for i := range worlds {
		c := sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
		job, err := tr.Jobs[i].Workload(c, trace.DefaultSplit, nil)
		if i%5 == 0 {
			c = cluster.NewM4LargeCluster(8)
			job = workload.PageRank(c, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		opt := sim.Options{Cluster: c, TrackNode: -1}
		if i%3 == 0 {
			if opt.Faults, err = faults.NewInjector(faults.FaultPlan{Seed: int64(i), TaskFailureProb: 0.2}); err != nil {
				t.Fatal(err)
			}
			opt.MaxAttempts = 1
		}
		worlds[i] = shardsim.World{Opt: opt, Runs: []sim.JobRun{{Job: job}}}
	}
	return worlds
}

// sequentialPrefixes runs worlds one after another and folds them in job
// order behind other's progress: element k is the checkpoint payload of a
// sequential replay after its first k jobs.
func sequentialPrefixes(t *testing.T, worlds []shardsim.World, other *Progress) [][]byte {
	t.Helper()
	ref := &Progress{}
	seq := &fold{p: ref}
	prefixes := [][]byte{EncodeProgress([]*Progress{other, ref})}
	for i, w := range worlds {
		res, err := sim.Run(w.Opt, w.Runs)
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.reduce(i, res); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, EncodeProgress([]*Progress{other, ref}))
	}
	if ref.Failed == 0 || len(ref.JCTs) == 0 {
		t.Fatalf("want both failed and finished jobs, got %d failed of %d", ref.Failed, len(worlds))
	}
	return prefixes
}

// foldThroughShards resumes the variant from prefixes[start], drives
// the replay's reduce over worlds[start:] through shardsim, and returns
// the final checkpoint payload; save, when non-nil, sees each payload
// written on the way.
func foldThroughShards(t *testing.T, shards int, worlds []shardsim.World, other *Progress, prefixes [][]byte, start int, save func([]byte) error) []byte {
	t.Helper()
	ps, err := DecodeProgress(prefixes[start], 2)
	if err != nil {
		t.Fatal(err)
	}
	state := []*Progress{other, ps[1]}
	f := &fold{p: state[1], start: start}
	if save != nil {
		f.then = func(int, *sim.Result) error { return save(EncodeProgress(state)) }
	}
	err = shardsim.Run(shardsim.Config{Shards: shards}, len(worlds)-start,
		func(k int) (shardsim.World, error) { return worlds[start+k], nil }, f.reduce)
	if err != nil {
		t.Fatal(err)
	}
	return EncodeProgress(state)
}

// TestPrefixFoldOrderInvariant: worlds that finish far out of index order,
// run by any number of shardsim workers, fold through the replay's reduce
// to the bit-identical progress (and checkpoint bytes) of a sequential
// replay, also when resuming from a saved prefix.
func TestPrefixFoldOrderInvariant(t *testing.T) {
	const n = 60
	worlds := unevenWorlds(t, n)
	other := &Progress{Done: 7, JCTs: []float64{1, 2}, CPUInt: 0.5, Failed: 5}
	prefixes := sequentialPrefixes(t, worlds, other)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, start := range []int{0, 23} {
			if got := foldThroughShards(t, shards, worlds, other, prefixes, start, nil); !bytes.Equal(got, prefixes[n]) {
				t.Errorf("shards %d, start %d: progress differs from the sequential fold", shards, start)
			}
		}
	}
}

// TestPrefixFoldSavesPrefixes drives the replay's reduce through shardsim
// at 4 shards over worlds that finish out of order, fresh and resumed
// mid-trace. Every checkpoint saved on the way must decode to a sequential
// replay's state after exactly its done jobs — a kill at any moment leaves
// a resumable prefix — and the final progress must be the sequential fold,
// bit for bit.
func TestPrefixFoldSavesPrefixes(t *testing.T) {
	const n = 60
	worlds := unevenWorlds(t, n)
	other := &Progress{Done: 7, JCTs: []float64{1, 2}, CPUInt: 0.5, Failed: 5}
	prefixes := sequentialPrefixes(t, worlds, other)
	for _, start := range []int{0, 17} {
		saves := 0
		got := foldThroughShards(t, 4, worlds, other, prefixes, start, func(b []byte) error {
			ps, err := DecodeProgress(b, 2)
			if err != nil {
				return err
			}
			saves++
			if done := ps[1].Done; done != start+saves || !bytes.Equal(b, prefixes[done]) {
				t.Errorf("start %d, save %d: not the sequential state after %d jobs", start, saves, done)
			}
			return nil
		})
		if saves != n-start {
			t.Errorf("start %d: %d saves, want %d", start, saves, n-start)
		}
		if !bytes.Equal(got, prefixes[n]) {
			t.Errorf("start %d: final progress differs from the sequential fold", start)
		}
	}
}

// FuzzDecodeProgress: decoding a checkpoint payload never panics, and
// every payload the decoder accepts re-encodes to the same bytes, so a
// resumed replay continues from exactly the state that was saved.
func FuzzDecodeProgress(f *testing.F) {
	f.Add(EncodeProgress(nil), uint8(0))
	f.Add(EncodeProgress([]*Progress{{}}), uint8(1))
	f.Add(EncodeProgress([]*Progress{
		{Done: 3, JCTs: []float64{10, 20.5}, CPUInt: 7.25, NetInt: 3, TimeInt: 30.5, Failed: 1},
		{Done: 1, JCTs: []float64{4}, CPUInt: 2, NetInt: 1, TimeInt: 4},
	}), uint8(2))
	f.Fuzz(func(t *testing.T, b []byte, n uint8) {
		ps, err := DecodeProgress(b, int(n%8))
		if err != nil {
			return
		}
		if got := EncodeProgress(ps); !bytes.Equal(got, b) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", got, b)
		}
	})
}
