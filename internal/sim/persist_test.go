package sim

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
	// A Watchdog is rejected before touching the file.
	if _, err := ReadStepperFile(path, Options{Cluster: c, TrackNode: -1, Watchdog: nopWatchdog{}}, runs); err == nil {
		t.Error("watchdog accepted on read")
	}
	// A stale payload version: the envelope check refuses it.
	fp, err := configFingerprint(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "stale.ckpt")
	if err := ckpt.WriteFile(stale, ckpt.Envelope{Kind: snapshotKind, Version: snapshotVersion - 1,
		Fingerprint: fp, Payload: []byte("an engine encoded field by field")}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStepperFile(stale, opt, runs); !ckpt.IsFormat(err) {
		t.Errorf("stale version: err = %v, want FormatError", err)
	}
	// The right fingerprint, but a position the replay does not reach:
	// one event off, or the clock one ulp off.
	for _, p := range [][]byte{
		position(s.horizon, s.Events()+1, s.Clock()),
		position(s.horizon, s.Events()-1, s.Clock()),
		position(s.horizon, s.Events(), math.Nextafter(s.Clock(), math.Inf(1))),
	} {
		off := filepath.Join(dir, "off.ckpt")
		if err := ckpt.WriteFile(off, ckpt.Envelope{Kind: snapshotKind, Version: snapshotVersion,
			Fingerprint: fp, Payload: p}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadStepperFile(off, opt, runs); !ckpt.IsFormat(err) {
			t.Errorf("replay missing the stored position: err = %v, want FormatError", err)
		}
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

// TestCheckpointedRejects pins the persistence refusals: a finished
// stepper cannot be written, nor can any world replay could not rebuild
// from its configuration — one under a Watchdog, one moved off an
// AdvanceBefore boundary, one whose delays a Fork revised — and a missing
// checkpoint reads as the os not-exist error.
func TestCheckpointedRejects(t *testing.T) {
	c := cluster.NewM4LargeCluster(3)
	job := galleryJobs(c, 0.2)[0]
	runs := []JobRun{{Job: job, Delays: map[dag.StageID]float64{job.Graph.Stages()[1]: 40}}}
	opt := Options{Cluster: c, TrackNode: -1}
	path := filepath.Join(t.TempDir(), "x.ckpt")
	refused := map[string]*Stepper{"watchdog": pausedAt(t, Options{Cluster: c, TrackNode: -1, Watchdog: nopWatchdog{}}, runs, 10)}

	stepped := pausedAt(t, opt, runs, 10)
	if err := stepped.StepNextEvent(); err != nil {
		t.Fatal(err)
	}
	refused["StepNextEvent-moved"] = stepped
	peeked := pausedAt(t, opt, runs, 10)
	peeked.PeekNextEventTime()
	refused["PeekNextEventTime-moved"] = peeked
	refused["advanced to +Inf"] = pausedAt(t, opt, runs, math.Inf(1))

	held := pausedAt(t, opt, runs, 1)
	revised, err := held.Fork([]DelayUpdate{{Job: 0, Stage: job.Graph.Stages()[1], Delay: 3}})
	if err != nil {
		t.Fatal(err)
	}
	refused["Fork-revised"] = revised
	if err := revised.AdvanceBefore(10); err != nil {
		t.Fatal(err)
	}
	for name, s := range refused {
		if err := s.WriteFile(path); err == nil {
			t.Errorf("%s world written", name)
		}
	}
	// An unrevised fork is the parent's world and replays as it.
	if f, err := held.Fork(nil); err != nil {
		t.Fatal(err)
	} else if err := f.WriteFile(path); err != nil {
		t.Errorf("unrevised fork: %v", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	s := pausedAt(t, opt, runs, 10)
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

// TestResumedObserverSeesUninterruptedEvents: an Observer on a stepper
// read back from a checkpoint receives the replayed prefix and then the
// rest, so its event and share streams equal those of an observer on the
// uninterrupted run — the property that lets a resumed cmd/simulate
// rewrite its -events log, Chrome trace and report byte-identically. A
// checkpoint that does not replay emits nothing.
func TestResumedObserverSeesUninterruptedEvents(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	job := galleryJobs(c, 0.25)[3]
	runs := []JobRun{{Job: job}}
	observed := func(rec *shareRecorder) Options {
		opt := chaosOptions(c, chaosInjector(t))
		opt.TrackNode, opt.TrackCluster, opt.Observer = 0, true, rec
		return opt
	}
	want := &shareRecorder{}
	ref, err := Run(observed(want), runs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "obs.ckpt")
	for _, frac := range []float64{0, 0.2, 0.5, 0.9} {
		// The writer's observer dies with its process; only the file lives on.
		if err := pausedAt(t, observed(&shareRecorder{}), runs, ref.Makespan*frac).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got := &shareRecorder{}
		s, err := ReadStepperFile(path, observed(got), runs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := stepOut(s)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "observed resume", ref, res)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("resumed at %v of the run: observer saw %d events, %d share intervals; uninterrupted %d, %d",
				frac, len(got.events), got.intervals, len(want.events), want.intervals)
		}
	}

	env, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := pausedAt(t, observed(&shareRecorder{}), runs, ref.Makespan*0.9)
	env.Payload = position(s.horizon, s.Events()+1, s.Clock())
	if err := ckpt.WriteFile(path, env); err != nil {
		t.Fatal(err)
	}
	got := &shareRecorder{}
	if _, err := ReadStepperFile(path, observed(got), runs); !ckpt.IsFormat(err) {
		t.Fatalf("err = %v, want FormatError", err)
	}
	if len(got.events) != 0 || got.intervals != 0 {
		t.Errorf("a checkpoint that does not replay sent %d events, %d share intervals to the observer",
			len(got.events), got.intervals)
	}
}

// FuzzReadStepperFile: any payload in a valid envelope either reads as a
// *ckpt.FormatError or yields a stepper standing at the payload's event
// count and clock. Reading never panics. The seeds are a paused world's
// position, the same position one event off, and payloads of the wrong
// size.
func FuzzReadStepperFile(f *testing.F) {
	c := cluster.NewM4LargeCluster(4)
	job := galleryJobs(c, 0.3)[0]
	opt := Options{Cluster: c, TrackNode: -1}
	runs := []JobRun{{Job: job, Delays: map[dag.StageID]float64{job.Graph.Stages()[1]: 40}}}
	s := pausedAt(f, opt, runs, 10)
	f.Add(position(s.horizon, s.Events(), s.Clock()))
	f.Add(position(s.horizon, s.Events()+1, s.Clock()))
	f.Add(position(math.Inf(1), s.Events(), s.Clock()))
	f.Add([]byte{})
	f.Add(make([]byte, payloadLen+1))
	fp, err := configFingerprint(opt, runs)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		path := filepath.Join(t.TempDir(), "snap.ckpt")
		if err := ckpt.WriteFile(path, ckpt.Envelope{Kind: snapshotKind, Version: snapshotVersion,
			Fingerprint: fp, Payload: p}); err != nil {
			t.Fatal(err)
		}
		s, err := ReadStepperFile(path, opt, runs)
		if err != nil {
			if !ckpt.IsFormat(err) {
				t.Fatalf("err = %v, want FormatError", err)
			}
			return
		}
		if !bytes.Equal(position(s.horizon, s.Events(), s.Clock())[8:], p[8:]) {
			t.Fatalf("read a stepper at event %d, t=%v from payload %x", s.Events(), s.Clock(), p)
		}
	})
}
