package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/faults"
	"delaystage/internal/obs"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// chaosRun is a checkpointable run under every machine-level fault and
// both mitigations — the regime the CI checkpoint resume step uses.
func chaosRun(t *testing.T) (sim.Options, []sim.JobRun) {
	t.Helper()
	c := cluster.NewM4LargeCluster(8)
	inj, err := faults.NewInjector(faults.FaultPlan{
		Seed: 1, NodeMTTF: 900, MTTFHorizon: 250, SlowNodeFrac: 0.2, SlowNodeFactor: 2.5,
		TaskFailureProb: 0.05, Crashes: []faults.NodeCrash{{Node: 2, At: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.Options{Cluster: c, TrackNode: 0, Faults: inj, MaxAttempts: 8,
		Speculation: true, BlacklistAfter: 3}
	return opt, []sim.JobRun{{Job: workload.PaperWorkloads(c, 0.3)["LDA"]}}
}

// countdownCtx reports cancellation from its n-th Err call on.
// runCheckpointed checks its context once per checkpoint written, so the
// run stops right after its n-th checkpoint — the state a SIGKILL at that
// moment leaves on disk.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

func stepper(t *testing.T, opt sim.Options, runs []sim.JobRun) *sim.Stepper {
	t.Helper()
	st, err := sim.NewStepper(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunCheckpointedKillEveryIndex kills the cadence loop right after
// each of its checkpoints in turn, reads the file back in a fresh stepper
// and finishes on the same cadence: every resumed run, like the
// uninterrupted checkpointed run, must equal a plain Run bit for bit.
func TestRunCheckpointedKillEveryIndex(t *testing.T) {
	opt, runs := chaosRun(t)
	ref, err := sim.Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	every := ref.Makespan / 6
	full, err := runCheckpointed(context.Background(), stepper(t, opt, runs), filepath.Join(t.TempDir(), "full.ckpt"), every)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, full) {
		t.Fatal("checkpointed run differs from Run")
	}
	for k := 1; ; k++ {
		path := filepath.Join(t.TempDir(), "kill.ckpt")
		_, err := runCheckpointed(&countdownCtx{context.Background(), k}, stepper(t, opt, runs), path, every)
		if err == nil {
			// The run finished before a k-th checkpoint.
			if k < 6 {
				t.Fatalf("only %d checkpoints over 6 intervals", k-1)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: %v", k, err)
		}
		st, err := sim.ReadStepperFile(path, opt, runs)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got, err := runCheckpointed(context.Background(), st, path, every)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("killed after checkpoint %d: resumed run differs from Run", k)
		}
	}
}

// TestRunCheckpointedCtxCancel pins the cooperative-cancellation contract
// behind simulate's signal handling: a cancelled run stops at a checkpoint
// boundary *after* flushing the file, reports context.Canceled, and
// resuming from the flushed file finishes bit-identical to the
// uninterrupted run.
func TestRunCheckpointedCtxCancel(t *testing.T) {
	opt, runs := chaosRun(t)
	ref, err := sim.Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cancel.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run: the first boundary must stop it
	_, err = runCheckpointed(ctx, stepper(t, opt, runs), path, ref.Makespan/6)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	st, err := sim.ReadStepperFile(path, opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCheckpointed(context.Background(), st, path, ref.Makespan/6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Error("resume after cancellation differs from the uninterrupted run")
	}
}

// TestRunCheckpointedKillEventLog is the -events half of a resume: a
// process killed after any checkpoint writes a partial log, and the
// resumed process, whose fresh log sees the replayed prefix, writes the
// uninterrupted run's log byte for byte.
func TestRunCheckpointedKillEventLog(t *testing.T) {
	opt, runs := chaosRun(t)
	logged := func(buf *bytes.Buffer) (sim.Options, *obs.JSONL) {
		l := obs.NewJSONL(buf)
		o := opt
		o.Observer = l
		return o, l
	}
	var want bytes.Buffer
	o, l := logged(&want)
	ref, err := sim.Run(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	every := ref.Makespan / 6
	for k := 1; k <= 5; k++ {
		path := filepath.Join(t.TempDir(), "kill.ckpt")
		o, _ := logged(&bytes.Buffer{})
		if _, err := runCheckpointed(&countdownCtx{context.Background(), k}, stepper(t, o, runs), path, every); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		var got bytes.Buffer
		o, l := logged(&got)
		st, err := sim.ReadStepperFile(path, o, runs)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if _, err := runCheckpointed(context.Background(), st, path, every); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("killed after checkpoint %d: resumed event log differs from the uninterrupted one", k)
		}
	}
}

// TestCheckpointFlagCombos: -checkpoint-dir takes the observer flags,
// whose output a resumed run rewrites identically, and refuses -serve and
// -guarded.
func TestCheckpointFlagCombos(t *testing.T) {
	ck := []string{"-checkpoint-dir", "d", "-checkpoint-every", "30"}
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-events", "e.jsonl", "-chrometrace", "t.json", "-report"}, true},
		{[]string{"-resume", "-events", "e.jsonl", "-report"}, true},
		{[]string{"-serve", "127.0.0.1:0"}, false},
		{[]string{"-guarded"}, false},
	} {
		o := flags()
		o.fs.Init("simulate", flag.ContinueOnError)
		o.fs.SetOutput(io.Discard)
		if err := o.fs.Parse(append(ck, tc.args...)); (err == nil) != tc.ok {
			t.Errorf("%v: err = %v", tc.args, err)
		}
	}
}

// TestFlagSurface pins simulate's flag names and defaults: a flag group shared
// with other commands must not add, drop or re-default any of them.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"approx-plan": "false", "blacklist-after": "0", "checkpoint-dir": "", "checkpoint-every": "0",
		"chrometrace": "", "crash-at": "0", "crash-node": "-1", "crash-rack": "-1", "crash-rack-at": "0",
		"events": "", "fault-rate": "0", "fault-seed": "1", "guarded": "false", "json": "",
		"linger": "0s", "max-retries": "0", "mttf-horizon": "0", "node-mttf": "0", "nodes": "30",
		"parallelism": "1", "rack-size": "0", "report": "false", "resume": "false", "scale": "1",
		"serve": "", "slow-node-factor": "1", "slow-node-frac": "0", "spec": "", "spec-threshold": "0",
		"speculate": "false", "straggler-factor": "1", "straggler-frac": "0", "strategy": "delaystage",
		"workload": "TriangleCount",
	}
	got := map[string]string{}
	flags().fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}
