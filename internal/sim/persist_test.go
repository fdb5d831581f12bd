package sim

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"delaystage/internal/ckpt"
	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/faults"
)

// chaosInjector returns a fault plan exercising every machine-level
// mechanism at once: hash-based crashes, a scheduled crash, slow nodes
// and task failures (which, with Speculation/BlacklistAfter on, drive
// the speculation and blacklisting paths too).
func chaosInjector(t *testing.T) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(faults.FaultPlan{
		Seed: 7, TaskFailureProb: 0.05, StragglerFrac: 0.25, StragglerFactor: 3,
		SlowNodeFrac: 0.2, SlowNodeFactor: 2.5,
		NodeMTTF: 4000, MTTFHorizon: 600,
		Crashes: []faults.NodeCrash{{Node: 2, At: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func chaosOptions(c *cluster.Cluster, inj *faults.Injector) Options {
	return Options{
		Cluster: c, TrackNode: -1, Faults: inj,
		MaxAttempts: 8, Speculation: true, BlacklistAfter: 3,
	}
}

// TestSnapshotFileRoundTrip is the on-disk half of the pause property: a
// stepper written to disk, read back into a fresh engine, and stepped on
// must reproduce the uninterrupted run bit for bit — including under the
// full chaos regime (crashes, stragglers, speculation, blacklisting).
func TestSnapshotFileRoundTrip(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(17))
	dir := t.TempDir()
	variants := []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Cluster: c, TrackNode: -1}},
		{"tracked", Options{Cluster: c, TrackNode: 0, TrackOccupancy: true, TrackCluster: true}},
		{"chaos", chaosOptions(c, chaosInjector(t))},
	}
	for _, job := range galleryJobs(c, 0.3) {
		for _, v := range variants {
			runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
			ref, err := Run(v.opt, runs)
			if err != nil {
				t.Fatalf("%s/%s: %v", job.Name, v.name, err)
			}
			end := ref.JobEnd[0]
			for _, at := range []float64{0, end * 0.3, end * 0.7, end * 0.95} {
				s := pausedAt(t, v.opt, runs, at)
				path := filepath.Join(dir, "snap.ckpt")
				if err := s.WriteFile(path); err != nil {
					t.Fatalf("%s/%s at %v: write: %v", job.Name, v.name, at, err)
				}
				loaded, err := ReadStepperFile(path, v.opt, runs)
				if err != nil {
					t.Fatalf("%s/%s at %v: read: %v", job.Name, v.name, at, err)
				}
				if loaded.horizon != s.horizon || loaded.Clock() != s.Clock() {
					t.Fatalf("%s/%s: horizon %v, clock %v round-tripped to %v, %v",
						job.Name, v.name, s.horizon, s.Clock(), loaded.horizon, loaded.Clock())
				}
				got, err := stepOut(loaded)
				if err != nil {
					t.Fatalf("%s/%s at %v: step: %v", job.Name, v.name, at, err)
				}
				requireIdentical(t, job.Name+"/"+v.name, ref, got)
			}
		}
	}
}

// TestSnapshotFileMultiJob covers the serialized form of a multi-job
// engine, paused between arrivals, and of a stepper grown by Inject: the
// reader names the injected runs too, and the written Inject horizon
// lets the read-back stepper keep growing.
func TestSnapshotFileMultiJob(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	jobs := galleryJobs(c, 0.2)
	opt := Options{Cluster: c, TrackNode: -1, FairByJob: true}
	runs := []JobRun{
		{Job: jobs[0], Arrival: 0},
		{Job: jobs[1], Arrival: 30},
		{Job: jobs[2], Arrival: 60, Delays: map[dag.StageID]float64{jobs[2].Graph.Stages()[1]: 12}},
	}
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "multi.ckpt")
	roundTrip := func(s *Stepper, runs []JobRun) *Stepper {
		t.Helper()
		if err := s.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadStepperFile(path, opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	for _, at := range []float64{0, 31, 59, ref.Makespan * 0.8} {
		got, err := stepOut(roundTrip(pausedAt(t, opt, runs, at), runs))
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "multi-job file", ref, got)
	}

	s := pausedAt(t, opt, runs[:1], runs[1].Arrival)
	if err := s.Inject(runs[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceBefore(runs[2].Arrival); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(s, runs[:2])
	if err := loaded.Inject(runs[2]); err != nil {
		t.Fatalf("inject after read-back: %v", err)
	}
	got, err := stepOut(loaded)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "injected multi-job file", ref, got)
}

// configFingerprint is the fingerprint a checkpoint of (opt, runs) carries.
func configFingerprint(opt Options, runs []JobRun) (uint64, error) {
	opt, err := prepare(opt, runs)
	if err != nil {
		return 0, err
	}
	return fingerprintPrepared(opt, runs), nil
}

// TestConfigFingerprint pins what the fingerprint is sensitive to: any
// configuration change that alters the trajectory must change it, and
// recomputing it for the same configuration must not.
func TestConfigFingerprint(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	job := galleryJobs(c, 0.3)[0]
	opt := Options{Cluster: c, TrackNode: -1}
	runs := []JobRun{{Job: job, Delays: map[dag.StageID]float64{job.Graph.Stages()[1]: 5}}}
	base, err := configFingerprint(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := configFingerprint(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Fatalf("fingerprint unstable: %x vs %x", base, again)
	}

	inj := chaosInjector(t)
	linked := Options{Cluster: c, TrackNode: -1, Links: uniformLinks(4, 1e8)}
	place := map[dag.StageID]int{}
	for _, id := range job.Graph.StagesView() {
		place[id] = len(place) % 4
	}
	placed := []JobRun{{Job: job, Delays: runs[0].Delays, Placement: place}}
	moved := placed[0]
	moved.Placement = maps.Clone(place)
	moved.Placement[job.Graph.Stages()[0]]++
	mutations := []struct {
		name string
		opt  Options
		runs []JobRun
	}{
		{"delay changed", opt, []JobRun{{Job: job, Delays: map[dag.StageID]float64{job.Graph.Stages()[1]: 6}}}},
		{"delay dropped", opt, []JobRun{{Job: job}}},
		{"arrival changed", opt, []JobRun{{Job: job, Arrival: 1, Delays: runs[0].Delays}}},
		{"cluster grown", Options{Cluster: cluster.NewM4LargeCluster(5), TrackNode: -1}, runs},
		{"faults added", Options{Cluster: c, TrackNode: -1, Faults: inj}, runs},
		{"speculation on", Options{Cluster: c, TrackNode: -1, Speculation: true}, runs},
		{"blacklist on", Options{Cluster: c, TrackNode: -1, BlacklistAfter: 2}, runs},
		{"aggshuffle on", Options{Cluster: c, TrackNode: -1, AggShuffle: true}, runs},
		{"job added", opt, []JobRun{runs[0], {Job: galleryJobs(c, 0.3)[1], Arrival: 10}}},
		{"links added", linked, runs},
		{"placement added", linked, placed},
	}
	for _, m := range mutations {
		fp, err := configFingerprint(m.opt, m.runs)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if fp == base {
			t.Errorf("%s: fingerprint did not change", m.name)
		}
	}

	// A placed world's fingerprint follows its links and placement too.
	placedFP, err := configFingerprint(linked, placed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		opt  Options
		runs []JobRun
	}{
		{"link changed", Options{Cluster: c, TrackNode: -1, Links: uniformLinks(4, 2e8)}, placed},
		{"placement changed", linked, []JobRun{moved}},
	} {
		fp, err := configFingerprint(m.opt, m.runs)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if fp == placedFP {
			t.Errorf("%s: fingerprint did not change", m.name)
		}
	}
}

// TestConfigFingerprintPinned pins the fingerprint of configurations
// without links or placements to the values checkpoints already on disk
// carry: adding a model input must not invalidate them.
func TestConfigFingerprintPinned(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	job := galleryJobs(c, 0.3)[0]
	runs := []JobRun{{Job: job, Arrival: 3, Delays: map[dag.StageID]float64{job.Graph.Stages()[1]: 5}}}
	for _, tc := range []struct {
		name string
		opt  Options
		want uint64
	}{
		{"plain", Options{Cluster: c, TrackNode: -1}, 0xfa5114ecc04f3661},
		{"chaos", chaosOptions(c, chaosInjector(t)), 0xf67a6cb1c5e05598},
	} {
		got, err := configFingerprint(tc.opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestReadSnapshotFileRejects pins the refusal cases: a checkpoint from a
// different configuration, one in a stale encoding, a corrupted file, and
// a missing file must all be distinguishable and never half-resume.
func TestReadSnapshotFileRejects(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	job := galleryJobs(c, 0.3)[0]
	opt := Options{Cluster: c, TrackNode: -1}
	runs := []JobRun{{Job: job}}
	s := pausedAt(t, opt, runs, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// Different configuration: same file, revised delays.
	other := []JobRun{{Job: job, Delays: map[dag.StageID]float64{job.Graph.Stages()[0]: 3}}}
	if _, err := ReadStepperFile(path, opt, other); !ckpt.IsFormat(err) {
		t.Errorf("different config: err = %v, want FormatError", err)
	}
	// Observer / Watchdog are rejected before touching the file.
	if _, err := ReadStepperFile(path, Options{Cluster: c, TrackNode: -1, Observer: nopObserver{}}, runs); err == nil {
		t.Error("observer accepted on read")
	}
	if _, err := ReadStepperFile(path, Options{Cluster: c, TrackNode: -1, Watchdog: nopWatchdog{}}, runs); err == nil {
		t.Error("watchdog accepted on read")
	}
	// A stale encoding version: the envelope check refuses it.
	stale := filepath.Join(dir, "stale.ckpt")
	fp, err := configFingerprint(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteFile(stale, ckpt.Envelope{Kind: snapshotKind, Version: snapshotVersion - 1,
		Fingerprint: fp, Payload: encodeEngine(s.e, s.horizon)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStepperFile(stale, opt, runs); !ckpt.IsFormat(err) {
		t.Errorf("stale version: err = %v, want FormatError", err)
	}
	// Corruption: flip one payload byte (CRC catches it).
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-12] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStepperFile(path, opt, runs); !ckpt.IsFormat(err) {
		t.Errorf("corrupt file: err = %v, want FormatError", err)
	}
	// Missing file: the raw os error, so callers can start fresh.
	if _, err := ReadStepperFile(filepath.Join(dir, "none.ckpt"), opt, runs); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
}

// checkpointed drives s to its end the way a crash-safe driver does: it
// advances to each multiple of every, rewrites the checkpoint at path
// there, and drains the world once it idles. It returns the result and
// the number of checkpoints written.
func checkpointed(t *testing.T, s *Stepper, path string, every float64) (*Result, int) {
	t.Helper()
	n := 0
	for stop := every * (math.Floor(s.Clock()/every) + 1); ; stop += every {
		if err := s.AdvanceBefore(stop); err != nil {
			t.Fatal(err)
		}
		if s.Idle() {
			break
		}
		if err := s.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		n++
	}
	res, err := stepOut(s)
	if err != nil {
		t.Fatal(err)
	}
	return res, n
}

// TestRunCheckpointedMatchesRun: periodically halting to write checkpoints
// must not perturb the trajectory — the final result equals a plain Run
// bit for bit, and the last checkpoint is left on disk.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(29))
	for _, job := range galleryJobs(c, 0.25) {
		opt := chaosOptions(c, chaosInjector(t))
		runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStepper(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		got, n := checkpointed(t, s, path, ref.Makespan/7)
		requireIdentical(t, job.Name+"/checkpointed", ref, got)
		if n < 6 {
			t.Errorf("%s: %d checkpoints written over 7 intervals", job.Name, n)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: no checkpoint left on disk: %v", job.Name, err)
		}
	}
}

// TestResumeCheckpointedBitIdentical emulates the SIGKILL story at every
// checkpoint index: the process dies right after writing its k-th
// checkpoint, leaving only the file; a fresh process reads it back with
// the same configuration, continues on the same cadence, and must finish
// with the exact result of the uninterrupted run.
func TestResumeCheckpointedBitIdentical(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	rng := rand.New(rand.NewSource(31))
	for _, job := range galleryJobs(c, 0.25) {
		opt := chaosOptions(c, chaosInjector(t))
		runs := []JobRun{{Job: job, Delays: randomDelays(job, rng)}}
		ref, err := Run(opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		every := ref.Makespan / 5
		k := 1
		for ; ; k++ {
			// The state a cadence run leaves on disk after its k-th
			// checkpoint: the world paused before k·every.
			s := pausedAt(t, opt, runs, float64(k)*every)
			if s.Idle() {
				break
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := s.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadStepperFile(path, opt, runs)
			if err != nil {
				t.Fatalf("%s k=%d: %v", job.Name, k, err)
			}
			got, _ := checkpointed(t, loaded, path, every)
			requireIdentical(t, job.Name+"/resumed", ref, got)
		}
		if k < 5 {
			t.Errorf("%s: only %d checkpoint indices before the run idled", job.Name, k-1)
		}
	}
}

// TestRunCheckpointedKillResume drives the full cycle through the real
// checkpoint file: run on a cadence, then read back the final checkpoint
// the run left (as a process killed before exiting would) and finish from
// it on the same cadence.
func TestRunCheckpointedKillResume(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	opt := chaosOptions(c, chaosInjector(t))
	job := galleryJobs(c, 0.3)[2]
	runs := []JobRun{{Job: job}}
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	live := filepath.Join(t.TempDir(), "live.ckpt")
	every := ref.Makespan / 6
	s, err := NewStepper(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := checkpointed(t, s, live, every)
	requireIdentical(t, "full checkpointed run", ref, full)
	// The surviving file is the final checkpoint; reading it back replays
	// the tail and lands on the same result again.
	loaded, err := ReadStepperFile(live, opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := checkpointed(t, loaded, live, every)
	requireIdentical(t, "resume from final checkpoint", ref, got)
}

// TestCheckpointedRejects pins the persistence refusals: worlds with an
// Observer or Watchdog and finished steppers cannot be written, and a
// missing checkpoint reads as the os not-exist error.
func TestCheckpointedRejects(t *testing.T) {
	c := cluster.NewM4LargeCluster(3)
	job := galleryJobs(c, 0.2)[0]
	runs := []JobRun{{Job: job}}
	path := filepath.Join(t.TempDir(), "x.ckpt")
	for _, o := range []Options{
		{Cluster: c, TrackNode: -1, Observer: nopObserver{}},
		{Cluster: c, TrackNode: -1, Watchdog: nopWatchdog{}},
	} {
		if err := pausedAt(t, o, runs, 10).WriteFile(path); err == nil {
			t.Error("observer or watchdog world written")
		}
	}
	s := pausedAt(t, Options{Cluster: c, TrackNode: -1}, runs, 10)
	if _, err := stepOut(s); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile(path); err == nil {
		t.Error("finished stepper written")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused write left a file behind: %v", err)
	}
	if _, err := ReadStepperFile(path, Options{Cluster: c, TrackNode: -1}, runs); !os.IsNotExist(err) {
		t.Errorf("missing checkpoint: err = %v, want not-exist", err)
	}
}

// TestTrackedSnapshotBytesDeterministic pins the encoding of a mid-run
// checkpoint under TrackOccupancy: the occupancy segments closed so far
// are encoded in append order, so the engine must close them (and sum
// their executor shares) in a fixed order — two checkpoints of the same
// run must be byte-identical, not merely equal after the final sort.
// Every gallery job runs at once, so many stages share nodes and a
// single finish closes many segments together.
func TestTrackedSnapshotBytesDeterministic(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	opt := Options{Cluster: c, TrackNode: -1, TrackOccupancy: true}
	var runs []JobRun
	for _, job := range galleryJobs(c, 0.3) {
		runs = append(runs, JobRun{Job: job})
	}
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Occupancy) < 2*len(runs) {
		t.Fatalf("%d occupancy segments; want a multi-stage trace", len(ref.Occupancy))
	}
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		at := ref.Makespan * frac
		var want []byte
		for rep := 0; rep < 8; rep++ {
			s := pausedAt(t, opt, runs, at)
			got := encodeEngine(s.e, s.horizon)
			if rep == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint %d at t=%v encodes differently from the first", rep, at)
			}
		}
	}
}

// timerWidthWorld is a gallery job paused with timers pending, and its
// encoded engine.
func timerWidthWorld(tb testing.TB) (Options, []JobRun, *Stepper, []byte) {
	tb.Helper()
	c := cluster.NewM4LargeCluster(4)
	job := galleryJobs(c, 0.3)[0]
	opt := Options{Cluster: c, TrackNode: -1}
	runs := []JobRun{{Job: job, Delays: map[dag.StageID]float64{job.Graph.Stages()[1]: 40}}}
	s := pausedAt(tb, opt, runs, 10)
	if len(s.e.timers) == 0 {
		tb.Fatal("paused world has no pending timer")
	}
	return opt, runs, s, encodeEngine(s.e, s.horizon)
}

// widenTimerField returns copies of payload with one int32 timer field of
// the world's first pending timer — job, node, partition or attempt — set
// to v.
func widenTimerField(tb testing.TB, s *Stepper, payload []byte, v int64) [][]byte {
	tb.Helper()
	// A timer record is at, seq, kind, stage key (job, stage), job, node,
	// home, phase, attempt, recompute; (at, seq, kind) locates it.
	t := s.e.timers[0]
	var head wbuf
	head.f64(t.at)
	head.int(t.seq)
	head.int(int(t.kind))
	at := bytes.Index(payload, head.b)
	if at < 0 || bytes.LastIndex(payload, head.b) != at {
		tb.Fatal("cannot locate the first timer's record in the payload")
	}
	var field wbuf
	field.i64(v)
	var out [][]byte
	for _, off := range []int{40, 48, 56, 72} {
		p := bytes.Clone(payload)
		copy(p[at+off:], field.b)
		out = append(out, p)
	}
	return out
}

// TestReadStepperFileRejectsWideTimerField: the engine keeps a timer's
// job, node, partition and attempt as int32. A checkpoint holding a value
// outside that range in any of them is a *ckpt.FormatError, never a
// silently truncated timer; the range's edges still read.
func TestReadStepperFileRejectsWideTimerField(t *testing.T) {
	opt, runs, s, payload := timerWidthWorld(t)
	fp, err := configFingerprint(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	read := func(p []byte) error {
		if err := ckpt.WriteFile(path, ckpt.Envelope{Kind: snapshotKind, Version: snapshotVersion,
			Fingerprint: fp, Payload: p}); err != nil {
			t.Fatal(err)
		}
		_, err := ReadStepperFile(path, opt, runs)
		return err
	}
	if err := read(payload); err != nil {
		t.Fatalf("unmodified payload: %v", err)
	}
	for _, v := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, 1 << 40} {
		for i, p := range widenTimerField(t, s, payload, v) {
			if err := read(p); !ckpt.IsFormat(err) {
				t.Errorf("timer field %d = %d: err = %v, want FormatError", i, v, err)
			}
		}
	}
	for _, v := range []int64{math.MaxInt32, math.MinInt32} {
		for i, p := range widenTimerField(t, s, payload, v) {
			if err := read(p); err != nil {
				t.Errorf("timer field %d = %d: %v", i, v, err)
			}
		}
	}
}

// FuzzReadStepperFile: any payload in a valid envelope either reads as a
// *ckpt.FormatError or yields a stepper whose encoding reads back and
// re-encodes to the same bytes. Reading never panics. The seeds are a
// paused world's payload and copies with a timer field past int32.
func FuzzReadStepperFile(f *testing.F) {
	opt, runs, s, payload := timerWidthWorld(f)
	f.Add(payload)
	for _, p := range widenTimerField(f, s, payload, math.MaxInt32+1) {
		f.Add(p)
	}
	fp, err := configFingerprint(opt, runs)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		path := filepath.Join(t.TempDir(), "snap.ckpt")
		read := func(p []byte) (*Stepper, error) {
			if err := ckpt.WriteFile(path, ckpt.Envelope{Kind: snapshotKind, Version: snapshotVersion,
				Fingerprint: fp, Payload: p}); err != nil {
				t.Fatal(err)
			}
			return ReadStepperFile(path, opt, runs)
		}
		s, err := read(p)
		if err != nil {
			if !ckpt.IsFormat(err) {
				t.Fatalf("err = %v, want FormatError", err)
			}
			return
		}
		again := encodeEngine(s.e, s.horizon)
		s2, err := read(again)
		if err != nil {
			t.Fatalf("re-encoded payload does not read: %v", err)
		}
		if !bytes.Equal(encodeEngine(s2.e, s2.horizon), again) {
			t.Fatal("re-encoded payload is not a fixed point")
		}
	})
}
