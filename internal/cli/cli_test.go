package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSet returns a flag set that reports errors instead of exiting.
func testSet() *FlagSet {
	f := &FlagSet{FlagSet: flag.NewFlagSet("test", flag.ContinueOnError)}
	f.SetOutput(io.Discard)
	return f
}

// TestChecks runs every group's parse-time validation: an anchored flag
// without its anchor, and a fault plan faults.FaultPlan.Validate rejects,
// are usage errors; their valid forms parse.
func TestChecks(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // error substring; "" = must parse
	}{
		{nil, ""},
		{[]string{"-node-mttf", "600"}, "horizon"},
		{[]string{"-node-mttf", "600", "-mttf-horizon", "200"}, ""},
		{[]string{"-fault-rate", "2"}, "task failure prob"},
		{[]string{"-straggler-frac", "0.2", "-straggler-factor", "0.5"}, "straggler factor"},
		{[]string{"-linger", "1s"}, "-linger requires -serve"},
		{[]string{"-serve", "127.0.0.1:0", "-linger", "1s"}, ""},
		{[]string{"-resume"}, "-resume requires -checkpoint-dir"},
		{[]string{"-resume", "-checkpoint-dir", "d"}, ""},
		{[]string{"-log-level", "loud"}, "unknown log level"},
		{[]string{"-log-level", "debug"}, ""},
	} {
		f := testSet()
		FaultFlags(f)
		IntrospectionFlags(f, "the run")
		CheckpointFlags(f)
		LogFlags(f)
		err := f.Parse(tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestFaultFlagsFillPlan: every fault flag lands in its plan or options
// field, and AppendKey lays out ten numbers plus the -speculate byte.
func TestFaultFlagsFillPlan(t *testing.T) {
	f := testSet()
	g := FaultFlags(f)
	if err := f.Parse([]string{"-fault-rate", "0.1", "-straggler-frac", "0.2", "-straggler-factor", "3",
		"-node-mttf", "900", "-mttf-horizon", "250", "-slow-node-frac", "0.3", "-slow-node-factor", "2",
		"-fault-seed", "7", "-max-retries", "5", "-speculate", "-blacklist-after", "2"}); err != nil {
		t.Fatal(err)
	}
	p := g.Plan
	if p.TaskFailureProb != 0.1 || p.StragglerFrac != 0.2 || p.StragglerFactor != 3 || p.NodeMTTF != 900 ||
		p.MTTFHorizon != 250 || p.SlowNodeFrac != 0.3 || p.SlowNodeFactor != 2 || p.Seed != 7 {
		t.Errorf("plan = %+v", p)
	}
	if g.MaxAttempts != 5 || !g.Speculation || g.BlacklistAfter != 2 {
		t.Errorf("options = %+v", g)
	}
	if key := g.AppendKey(nil); len(key) != 81 || key[80] != 1 {
		t.Errorf("key is %d bytes ending %d, want 81 ending 1", len(key), key[len(key)-1])
	}
}

// TestCheckpointOpen: Open creates the checkpoint directory and names
// the file in it, and reports -resume as set.
func TestCheckpointOpen(t *testing.T) {
	for _, resume := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "sub")
		g := &Checkpoint{Dir: dir, resume: resume}
		path, gotResume, err := g.Open("x.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		if path != filepath.Join(dir, "x.ckpt") || gotResume != resume {
			t.Errorf("resume=%v: Open = %q, %v", resume, path, gotResume)
		}
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("checkpoint directory not created: %v", err)
		}
	}
}

// TestSinks writes both artifacts through Open and Close.
func TestSinks(t *testing.T) {
	dir := t.TempDir()
	f := testSet()
	g := SinkFlags(f, "the run")
	if g.Set() {
		t.Fatal("Set before any flag")
	}
	ev, tr := filepath.Join(dir, "ev.jsonl"), filepath.Join(dir, "tr.json")
	if err := f.Parse([]string{"-events", ev, "-chrometrace", tr}); err != nil {
		t.Fatal(err)
	}
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	if !g.Set() || g.JSONL == nil || g.Chrome == nil {
		t.Fatal("Open attached no exporters")
	}
	if err := g.Close(nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Errorf("chrome trace is not JSON: %v", err)
	}
	if _, err := os.Stat(ev); err != nil {
		t.Error(err)
	}
}

// TestIntrospectionCloseCutsLinger: an ended context cuts a long linger
// short, and the endpoint is closed afterwards.
func TestIntrospectionCloseCutsLinger(t *testing.T) {
	f := testSet()
	g := IntrospectionFlags(f, "the run")
	if err := f.Parse([]string{"-serve", "127.0.0.1:0", "-linger", "1h"}); err != nil {
		t.Fatal(err)
	}
	reg, err := g.Start(func(string) {})
	if err != nil || reg == nil {
		t.Fatalf("Start = %v, %v", reg, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Close took %v on an ended context", d)
	}
	if err := <-g.srv.Done(); err != nil {
		t.Errorf("endpoint exited with %v", err)
	}
}

// TestJobs loads each kind of job the group selects.
func TestJobs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		name string // "" = must fail
	}{
		{nil, "LDA"},
		{[]string{"-workload", "ALS", "-nodes", "5", "-scale", "0.5"}, "ALS"},
		{[]string{"-workload", "TriangleCount"}, "TriangleCount"},
		{[]string{"-workload", "Nope"}, ""},
		{[]string{"-spec", "does-not-exist.json"}, ""},
	} {
		f := testSet()
		g := JobFlags(f, "LDA")
		if err := f.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		job, err := g.Job(g.Cluster())
		switch {
		case tc.name == "" && err == nil:
			t.Errorf("%v: loaded %s, want an error", tc.args, job.Name)
		case tc.name != "" && (err != nil || !strings.Contains(job.Name, tc.name)):
			t.Errorf("%v: job %v, err %v; want %s", tc.args, job, err, tc.name)
		}
	}
}

// TestOpenInput: "" and "-" read standard input, and closing the reader
// leaves it open; any other path opens that file, and a missing file is an
// error.
func TestOpenInput(t *testing.T) {
	stdin := os.Stdin
	defer func() { os.Stdin = stdin }()
	for _, path := range []string{"", "-"} {
		pr, pw, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdin = pr
		pw.WriteString("from stdin")
		pw.Close()
		r, err := OpenInput(path)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := io.ReadAll(r); err != nil || string(b) != "from stdin" {
			t.Errorf("OpenInput(%q) read %q, %v; want standard input", path, b, err)
		}
		r.Close()
		if _, err := pr.Stat(); err != nil {
			t.Errorf("closing OpenInput(%q) closed standard input: %v", path, err)
		}
		pr.Close()
	}
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte("a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenInput(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if b, err := io.ReadAll(r); err != nil || string(b) != "a,b\n" {
		t.Errorf("read %q, %v; want the file's bytes", b, err)
	}
	if _, err := OpenInput(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: got %v, want fs.ErrNotExist", err)
	}
}
