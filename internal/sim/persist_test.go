package sim

import (
	"bytes"
	"context"
	"errors"
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

// TestSnapshotFileRoundTrip is the on-disk half of the checkpoint
// property: a snapshot written to disk, read back in a fresh engine, and
// resumed must reproduce the uninterrupted run bit for bit — including
// under the full chaos regime (crashes, stragglers, speculation,
// blacklisting).
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
				snap, err := SnapshotAt(v.opt, runs, at)
				if err != nil {
					t.Fatalf("%s/%s at %v: %v", job.Name, v.name, at, err)
				}
				path := filepath.Join(dir, "snap.ckpt")
				if err := snap.WriteFile(path); err != nil {
					t.Fatalf("%s/%s at %v: write: %v", job.Name, v.name, at, err)
				}
				loaded, err := ReadSnapshotFile(path, v.opt, runs)
				if err != nil {
					t.Fatalf("%s/%s at %v: read: %v", job.Name, v.name, at, err)
				}
				if loaded.At != snap.At {
					t.Fatalf("%s/%s: At %v round-tripped to %v", job.Name, v.name, snap.At, loaded.At)
				}
				got, err := loaded.Resume(nil)
				if err != nil {
					t.Fatalf("%s/%s at %v: resume: %v", job.Name, v.name, at, err)
				}
				requireIdentical(t, job.Name+"/"+v.name, ref, got)
			}
		}
	}
}

// TestSnapshotFileMultiJob covers the serialized form of a multi-job
// engine, checkpointed between arrivals.
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
	for _, at := range []float64{0, 31, 59, ref.Makespan * 0.8} {
		snap, err := SnapshotAt(opt, runs, at)
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadSnapshotFile(path, opt, runs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Resume(nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "multi-job file", ref, got)
	}
}

// TestConfigFingerprint pins what the fingerprint is sensitive to: any
// configuration change that alters the trajectory must change it, and
// recomputing it for the same configuration must not.
func TestConfigFingerprint(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	job := galleryJobs(c, 0.3)[0]
	opt := Options{Cluster: c, TrackNode: -1}
	runs := []JobRun{{Job: job, Delays: map[dag.StageID]float64{job.Graph.Stages()[1]: 5}}}
	base, err := ConfigFingerprint(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ConfigFingerprint(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Fatalf("fingerprint unstable: %x vs %x", base, again)
	}

	inj := chaosInjector(t)
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
	}
	for _, m := range mutations {
		fp, err := ConfigFingerprint(m.opt, m.runs)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if fp == base {
			t.Errorf("%s: fingerprint did not change", m.name)
		}
	}
}

// TestReadSnapshotFileRejects pins the refusal cases: a checkpoint from a
// different configuration, a corrupted file, and a missing file must all
// be distinguishable and never half-resume.
func TestReadSnapshotFileRejects(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	job := galleryJobs(c, 0.3)[0]
	opt := Options{Cluster: c, TrackNode: -1}
	runs := []JobRun{{Job: job}}
	snap, err := SnapshotAt(opt, runs, 10)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// Different configuration: same file, revised delays.
	other := []JobRun{{Job: job, Delays: map[dag.StageID]float64{job.Graph.Stages()[0]: 3}}}
	if _, err := ReadSnapshotFile(path, opt, other); !ckpt.IsFormat(err) {
		t.Errorf("different config: err = %v, want FormatError", err)
	}
	// Observer / Watchdog are rejected before touching the file.
	if _, err := ReadSnapshotFile(path, Options{Cluster: c, TrackNode: -1, Observer: nopObserver{}}, runs); err == nil {
		t.Error("observer accepted on resume")
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
	if _, err := ReadSnapshotFile(path, opt, runs); !ckpt.IsFormat(err) {
		t.Errorf("corrupt file: err = %v, want FormatError", err)
	}
	// Missing file: the raw os error, so callers can start fresh.
	if _, err := ReadSnapshotFile(filepath.Join(dir, "none.ckpt"), opt, runs); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
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
		path := filepath.Join(t.TempDir(), "run.ckpt")
		got, err := RunCheckpointed(opt, runs, path, ref.Makespan/7)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		requireIdentical(t, job.Name+"/checkpointed", ref, got)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: no checkpoint left on disk: %v", job.Name, err)
		}
	}
}

// TestResumeCheckpointedBitIdentical emulates the SIGKILL story: the
// process dies right after writing its k-th checkpoint, leaving only the
// file; a fresh process resumes from it with the same configuration and
// cadence and must finish with the exact result of the uninterrupted run.
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
		for k := 1; k <= 4; k++ {
			// The state RunCheckpointed leaves on disk after its k-th
			// checkpoint is exactly SnapshotAt(k·every): both halt the same
			// engine at the same boundary.
			snap, err := SnapshotAt(opt, runs, float64(k)*every)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := snap.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := ResumeCheckpointed(opt, runs, path, every)
			if err != nil {
				t.Fatalf("%s k=%d: %v", job.Name, k, err)
			}
			requireIdentical(t, job.Name+"/resumed", ref, got)
		}
	}
}

// TestRunCheckpointedKillResume drives the full cycle through the real
// checkpoint files: run with a cadence, grab an intermediate checkpoint
// the moment it lands (as a killed process would leave it), then resume
// from that copy and compare against the uninterrupted result.
func TestRunCheckpointedKillResume(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	opt := chaosOptions(c, chaosInjector(t))
	job := galleryJobs(c, 0.3)[2]
	runs := []JobRun{{Job: job}}
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	live := filepath.Join(dir, "live.ckpt")
	every := ref.Makespan / 6
	full, err := RunCheckpointed(opt, runs, live, every)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "full checkpointed run", ref, full)
	// The surviving file is the final checkpoint; resuming it replays the
	// tail and lands on the same result again.
	got, err := ResumeCheckpointed(opt, runs, live, every)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "resume from final checkpoint", ref, got)
}

// TestCheckpointedRejects pins the API refusals.
func TestCheckpointedRejects(t *testing.T) {
	c := cluster.NewM4LargeCluster(3)
	job := galleryJobs(c, 0.2)[0]
	runs := []JobRun{{Job: job}}
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if _, err := RunCheckpointed(Options{Cluster: c, TrackNode: -1, Observer: nopObserver{}}, runs, path, 10); err == nil {
		t.Error("observer accepted")
	}
	if _, err := RunCheckpointed(Options{Cluster: c, TrackNode: -1}, runs, path, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := RunCheckpointed(Options{Cluster: c, TrackNode: -1}, runs, path, -5); err == nil {
		t.Error("negative interval accepted")
	}
	if _, err := ResumeCheckpointed(Options{Cluster: c, TrackNode: -1}, runs, path, 10); !os.IsNotExist(err) {
		t.Errorf("missing checkpoint: err = %v, want not-exist", err)
	}
}

// TestRunCheckpointedCtxCancel pins the cooperative-cancellation contract:
// a cancelled run stops at a checkpoint boundary *after* flushing the
// file, reports context.Canceled, and resuming from the flushed file
// finishes bit-identical to the uninterrupted run — the signal-handling
// story of cmd/simulate.
func TestRunCheckpointedCtxCancel(t *testing.T) {
	c := cluster.NewM4LargeCluster(5)
	opt := chaosOptions(c, chaosInjector(t))
	job := galleryJobs(c, 0.3)[1]
	runs := []JobRun{{Job: job}}
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cancel.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run: the first boundary must stop it
	_, err = RunCheckpointedCtx(ctx, opt, runs, path, ref.Makespan/6)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	got, err := ResumeCheckpointed(opt, runs, path, ref.Makespan/6)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "resume after cancellation", ref, got)
}

// TestTrackedSnapshotBytesDeterministic pins the encoding of a mid-run
// checkpoint under TrackOccupancy: the occupancy segments closed so far
// are encoded in append order, so the engine must close them (and sum
// their executor shares) in a fixed order — two snapshots of the same
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
			snap, err := SnapshotAt(opt, runs, at)
			if err != nil {
				t.Fatal(err)
			}
			got := encodeEngine(snap.eng, snap.At)
			if rep == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("snapshot %d at t=%v encodes differently from the first", rep, at)
			}
		}
	}
}
