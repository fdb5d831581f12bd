package main

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/shardsim"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
	"delaystage/internal/workload"
)

// TestMain runs the command itself when replayMainEnv is set, so a test
// can drive replay end to end as a child process of the test binary.
func TestMain(m *testing.M) {
	if os.Getenv(replayMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const replayMainEnv = "DELAYSTAGE_REPLAY_MAIN"

// runReplay runs replay with args in a child process and returns its
// standard error.
func runReplay(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), replayMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("replay %v: %v\n%s", args, err, stderr.String())
	}
	return stderr.String()
}

// TestCheckpointRejectsOtherTrace: the progress checkpoint's fingerprint
// covers the trace bytes, so a checkpoint resumes against the trace it
// was written for and is discarded, with the run started fresh, against
// any other.
func TestCheckpointRejectsOtherTrace(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64) string {
		var buf bytes.Buffer
		if err := trace.Generate(trace.GenConfig{Jobs: 4, Seed: seed, MaxStages: 6}).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.csv", 1), write("b.csv", 2)
	ck, out := filepath.Join(dir, "ck"), filepath.Join(dir, "out.json")
	fresh := filepath.Join(dir, "fresh.json")
	runReplay(t, "-f", a, "-checkpoint-dir", ck)
	if msg := runReplay(t, "-f", a, "-checkpoint-dir", ck, "-resume"); !strings.Contains(msg, "resumed from") {
		t.Fatalf("the same trace did not resume:\n%s", msg)
	}
	msg := runReplay(t, "-f", b, "-checkpoint-dir", ck, "-resume", "-json", out)
	if !strings.Contains(msg, "unusable checkpoint") || !strings.Contains(msg, "fingerprint") {
		t.Fatalf("a checkpoint of another trace was not rejected:\n%s", msg)
	}
	runReplay(t, "-f", b, "-json", fresh)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("after rejecting the checkpoint the run differs from a fresh one:\n got %s\nwant %s", got, want)
	}
}

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
func sequentialPrefixes(t *testing.T, worlds []shardsim.World, other *progress) [][]byte {
	t.Helper()
	ref := &progress{}
	seq := &jobFold{p: ref}
	prefixes := [][]byte{encodeProgress([]*progress{other, ref})}
	for i, w := range worlds {
		res, err := sim.Run(w.Opt, w.Runs)
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.reduce(i, res); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, encodeProgress([]*progress{other, ref}))
	}
	if ref.failed == 0 || len(ref.jcts) == 0 {
		t.Fatalf("want both failed and finished jobs, got %d failed of %d", ref.failed, len(worlds))
	}
	return prefixes
}

// foldThroughShards resumes the variant from prefixes[start], drives
// replay's reduce over worlds[start:] through shardsim, and returns the
// final checkpoint payload; save, when non-nil, sees each payload written
// on the way.
func foldThroughShards(t *testing.T, shards int, worlds []shardsim.World, other *progress, prefixes [][]byte, start int, save func([]byte) error) []byte {
	t.Helper()
	ps, err := decodeProgress(prefixes[start], 2)
	if err != nil {
		t.Fatal(err)
	}
	state := []*progress{other, ps[1]}
	fold := &jobFold{p: state[1], start: start}
	if save != nil {
		fold.save = func() error { return save(encodeProgress(state)) }
	}
	err = shardsim.Run(shardsim.Config{Shards: shards}, len(worlds)-start,
		func(k int) (shardsim.World, error) { return worlds[start+k], nil }, fold.reduce)
	if err != nil {
		t.Fatal(err)
	}
	return encodeProgress(state)
}

// TestPrefixFoldOrderInvariant: worlds that finish far out of index order,
// run by any number of shardsim workers, fold through replay's reduce to
// the bit-identical progress (and checkpoint bytes) of a sequential
// replay, also when resuming from a saved prefix.
func TestPrefixFoldOrderInvariant(t *testing.T) {
	const n = 60
	worlds := unevenWorlds(t, n)
	other := &progress{done: 7, jcts: []float64{1, 2}, cpuInt: 0.5, failed: 5}
	prefixes := sequentialPrefixes(t, worlds, other)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, start := range []int{0, 23} {
			if got := foldThroughShards(t, shards, worlds, other, prefixes, start, nil); !bytes.Equal(got, prefixes[n]) {
				t.Errorf("shards %d, start %d: progress differs from the sequential fold", shards, start)
			}
		}
	}
}

// TestPrefixFoldSavesPrefixes drives replay's reduce through shardsim at 4
// shards over worlds that finish out of order, fresh and resumed
// mid-trace. Every checkpoint saved on the way must decode to a sequential
// replay's state after exactly its done jobs — a kill at any moment leaves
// a resumable prefix — and the final progress must be the sequential fold,
// bit for bit.
func TestPrefixFoldSavesPrefixes(t *testing.T) {
	const n = 60
	worlds := unevenWorlds(t, n)
	other := &progress{done: 7, jcts: []float64{1, 2}, cpuInt: 0.5, failed: 5}
	prefixes := sequentialPrefixes(t, worlds, other)
	for _, start := range []int{0, 17} {
		saves := 0
		got := foldThroughShards(t, 4, worlds, other, prefixes, start, func(b []byte) error {
			ps, err := decodeProgress(b, 2)
			if err != nil {
				return err
			}
			saves++
			if done := ps[1].done; done != start+saves || !bytes.Equal(b, prefixes[done]) {
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

// TestFlagSurface pins replay's flag names and defaults: a flag group shared
// with other commands must not add, drop or re-default any of them.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"approx-plan": "false", "blacklist-after": "0", "checkpoint-dir": "", "chrometrace": "",
		"events": "", "f": "", "fault-rate": "0", "fault-seed": "1", "json": "", "linger": "0s",
		"log-level": "info", "max-retries": "0", "mttf-horizon": "0", "node-mttf": "0",
		"resume": "false", "seed": "1", "serve": "", "shards": "0",
		"slice-machines": "2", "slow-node-factor": "1", "slow-node-frac": "0", "speculate": "false",
		"straggler-factor": "1", "straggler-frac": "0", "variants": "",
	}
	got := map[string]string{}
	flags().fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

// TestConfigKeyPinned pins the flag part of the progress-checkpoint
// fingerprint to its established bytes: slice machines and seed, the ten
// fault numbers, -speculate, -approx-plan, then the variant names. Any
// change to them would make every saved checkpoint unusable.
func TestConfigKeyPinned(t *testing.T) {
	o := flags()
	if err := o.fs.Parse([]string{"-slice-machines", "3", "-seed", "7", "-fault-rate", "0.05",
		"-straggler-frac", "0.2", "-straggler-factor", "3.5", "-node-mttf", "2000", "-mttf-horizon", "500",
		"-slow-node-frac", "0.1", "-slow-node-factor", "2.5", "-fault-seed", "9", "-max-retries", "5",
		"-blacklist-after", "2", "-speculate", "-variants", "fuxi,default"}); err != nil {
		t.Fatal(err)
	}
	variants, err := o.selectVariants()
	if err != nil {
		t.Fatal(err)
	}
	const want = "00000000000008400000000000001c409a9999999999a93f9a9999999999c93f" +
		"0000000000000c400000000000409f400000000000407f409a9999999999b93f" +
		"0000000000000440000000000000224000000000000014400000000000000040" +
		"01004675786964656661756c742044656c61795374616765"
	if got := hex.EncodeToString(o.configKey(variants)); got != want {
		t.Errorf("config key changed:\n got %s\nwant %s", got, want)
	}
}
