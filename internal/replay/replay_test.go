package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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

// testFingerprint stands for a replay's trace and flag hash.
const testFingerprint = 0x5eed

// sequentialLog runs worlds one after another and folds them in job order
// under two variants in turn. It returns the log such a replay writes and
// each variant's final progress.
func sequentialLog(t *testing.T, worlds []shardsim.World) ([]byte, []*Progress) {
	t.Helper()
	ps := []*Progress{{}, {}}
	log := appendHeader(nil, testFingerprint)
	results := make([]*sim.Result, len(worlds))
	for i, w := range worlds {
		res, err := sim.Run(w.Opt, w.Runs)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	for _, p := range ps {
		seq := &fold{p: p}
		for i, res := range results {
			if err := seq.reduce(i, res); err != nil {
				t.Fatal(err)
			}
			log = recordOf(res).appendTo(log)
		}
	}
	if ps[0].Failed == 0 || len(ps[0].JCTs) == 0 {
		t.Fatalf("want both failed and finished jobs, got %d failed of %d", ps[0].Failed, len(worlds))
	}
	return log, ps
}

// bits renders progress with every float exact, so equal strings mean
// bit-identical state.
func bits(ps []*Progress) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%d %d %x %x %x %x\n", p.Done, p.Failed, p.CPUInt, p.NetInt, p.TimeInt, p.JCTs)
	}
	return b.String()
}

// refolded re-folds a log of n jobs per variant into fresh progress.
func refolded(t *testing.T, log []byte, n int) []*Progress {
	t.Helper()
	ps := []*Progress{{}, {}}
	if _, err := refold(bytes.NewReader(log), testFingerprint, n, ps); err != nil {
		t.Fatal(err)
	}
	return ps
}

// foldThroughShards resumes from the sequential log cut after variant 0
// and start jobs of variant 1, drives the replay's reduce over
// worlds[start:] through shardsim, appending each fold to the log, and
// returns the final log and progress; appended, when non-nil, sees the log
// file and the live progress after each append.
func foldThroughShards(t *testing.T, shards int, worlds []shardsim.World, seqLog []byte, start int,
	appended func(log []byte, ps []*Progress)) ([]byte, []*Progress) {
	t.Helper()
	n := len(worlds)
	path := filepath.Join(t.TempDir(), "replay.ckpt")
	if err := os.WriteFile(path, seqLog[:headerSize+(n+start)*recordSize], 0o644); err != nil {
		t.Fatal(err)
	}
	ps := []*Progress{{}, {}}
	lg, _, err := OpenLog(path, testFingerprint, n, ps, true)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if ps[0].Done != n || ps[1].Done != start {
		t.Fatalf("resumed at %d+%d jobs, want %d+%d", ps[0].Done, ps[1].Done, n, start)
	}
	read := func() []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	f := &fold{p: ps[1], start: start, then: func(_ int, res *sim.Result) error {
		if err := lg.Append(res); err != nil {
			return err
		}
		if appended != nil {
			appended(read(), ps)
		}
		return nil
	}}
	err = shardsim.Run(shardsim.Config{Shards: shards}, n-start,
		func(k int) (shardsim.World, error) { return worlds[start+k], nil }, f.reduce)
	if err != nil {
		t.Fatal(err)
	}
	return read(), ps
}

// TestPrefixFoldOrderInvariant: worlds that finish far out of index order,
// run by any number of shardsim workers, fold through the replay's reduce
// to the bit-identical progress and log of a sequential replay, also when
// resuming from a cut log; the final log re-folds to that progress.
func TestPrefixFoldOrderInvariant(t *testing.T) {
	const n = 60
	worlds := unevenWorlds(t, n)
	seqLog, ref := sequentialLog(t, worlds)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, start := range []int{0, 23} {
			log, ps := foldThroughShards(t, shards, worlds, seqLog, start, nil)
			if !bytes.Equal(log, seqLog) {
				t.Errorf("shards %d, start %d: log differs from the sequential one", shards, start)
			}
			if bits(ps) != bits(ref) || bits(refolded(t, log, n)) != bits(ref) {
				t.Errorf("shards %d, start %d: progress differs from the sequential fold", shards, start)
			}
		}
	}
}

// TestPrefixFoldSavesPrefixes drives the replay's reduce through shardsim
// at 4 shards over worlds that finish out of order, fresh and resumed
// mid-trace. After every append the log must be the sequential log's
// prefix of exactly the jobs done, and re-fold to the live progress bit
// for bit: a kill at any moment leaves a resumable prefix.
func TestPrefixFoldSavesPrefixes(t *testing.T) {
	const n = 60
	worlds := unevenWorlds(t, n)
	seqLog, ref := sequentialLog(t, worlds)
	for _, start := range []int{0, 17} {
		saves := 0
		_, ps := foldThroughShards(t, 4, worlds, seqLog, start, func(log []byte, live []*Progress) {
			saves++
			done := start + saves
			if !bytes.Equal(log, seqLog[:headerSize+(n+done)*recordSize]) {
				t.Errorf("start %d, save %d: log is not the sequential one after %d jobs", start, saves, done)
			}
			if got := refolded(t, log, n); got[1].Done != done || bits(got) != bits(live) {
				t.Errorf("start %d, save %d: log re-folds to %d jobs, not the live state after %d", start, saves, got[1].Done, done)
			}
		})
		if saves != n-start {
			t.Errorf("start %d: %d saves, want %d", start, saves, n-start)
		}
		if bits(ps) != bits(ref) {
			t.Errorf("start %d: final progress differs from the sequential fold", start)
		}
	}
}

// TestOpenLogStartsFresh: without -resume, and on resume over a missing
// log or a file that is not this replay's log, OpenLog leaves a log of
// just the header, folds nothing and says why it started fresh; a record
// appended then lands right after the header.
func TestOpenLogStartsFresh(t *testing.T) {
	header := appendHeader(nil, testFingerprint)
	valid := recordOf(&sim.Result{JobStart: []float64{1}, JobEnd: []float64{5}}).appendTo(append([]byte(nil), header...))
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 1
	for _, tc := range []struct {
		name   string
		file   []byte // nil = no file
		resume bool
		note   string // substring of the note; "" = none
	}{
		{"no resume", valid, false, ""},
		{"missing", nil, true, "no checkpoint"},
		{"empty", []byte{}, true, "unusable checkpoint"},
		{"torn header", header[:headerSize-1], true, "torn header"},
		{"bad magic", append([]byte("DSCKPT01"), valid[8:]...), true, "bad magic"},
		{"header bit flipped", flipped, true, "header CRC mismatch"},
		{"other fingerprint", appendHeader(nil, testFingerprint+1), true, "fingerprint"},
	} {
		path := filepath.Join(t.TempDir(), "replay.ckpt")
		if tc.file != nil {
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ps := []*Progress{{}}
		lg, note, err := OpenLog(path, testFingerprint, 3, ps, tc.resume)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (tc.note == "") != (note == "") || !strings.Contains(note, tc.note) {
			t.Errorf("%s: note %q, want %q", tc.name, note, tc.note)
		}
		if ps[0].Done != 0 {
			t.Errorf("%s: folded %d records", tc.name, ps[0].Done)
		}
		if err := lg.Append(&sim.Result{JobStart: []float64{1}, JobEnd: []float64{5}}); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, valid) {
			t.Errorf("%s: log %x, want the header and one record %x", tc.name, got, valid)
		}
	}
}

// FuzzOpenLog: resuming a log with arbitrary bytes after its header never
// panics, re-folds exactly the longest run of whole, CRC-valid records
// (at most the replay's 2 variants × 3 jobs), and leaves the file as the
// header plus those records.
func FuzzOpenLog(f *testing.F) {
	recs := func(rs ...record) []byte {
		var b []byte
		for _, r := range rs {
			b = r.appendTo(b)
		}
		return b
	}
	f.Add([]byte{})
	f.Add(recs(record{jct: 10, cpu: 0.5, net: 0.25}, record{failed: true}, record{jct: 4, cpu: 1}, record{jct: 2}))
	f.Add(append(recs(record{jct: 3}), recs(record{jct: 7})[:recordSize-1]...))
	flipped := recs(record{jct: 3}, record{jct: 5, cpu: 0.5}, record{jct: 1})
	flipped[recordSize+3] ^= 4
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, tail []byte) {
		const n = 3
		header := appendHeader(nil, testFingerprint)
		path := filepath.Join(t.TempDir(), "replay.ckpt")
		if err := os.WriteFile(path, append(header, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		ps := []*Progress{{}, {}}
		lg, note, err := OpenLog(path, testFingerprint, n, ps, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		want := 0
		for ; want < 2*n && (want+1)*recordSize <= len(tail); want++ {
			r := tail[want*recordSize : (want+1)*recordSize]
			if r[0] > 1 || crc32.ChecksumIEEE(r[:recordSize-4]) != binary.LittleEndian.Uint32(r[recordSize-4:]) {
				break
			}
		}
		if got := ps[0].Done + ps[1].Done; got != want || ps[0].Done != min(want, n) {
			t.Fatalf("folded %d+%d records, want the %d whole valid ones", ps[0].Done, ps[1].Done, want)
		}
		if !strings.Contains(note, fmt.Sprintf("recovered %d of %d runs, dropped %d torn tail bytes", want, 2*n, len(tail)-want*recordSize)) {
			t.Fatalf("note %q", note)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(header, tail[:want*recordSize]...)) {
			t.Fatalf("left %x, want the header and %d records", got, want)
		}
	})
}
