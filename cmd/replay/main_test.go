package main

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"delaystage/internal/cli"
	"delaystage/internal/trace"
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
	_, stderr := runReplayOut(t, args...)
	return stderr
}

// runReplayOut runs replay with args in a child process and returns its
// standard output and standard error.
func runReplayOut(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), replayMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("replay %v: %v\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
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

// TestResumeFromCutLogs: a checkpointed two-variant replay's log, cut at
// every record boundary, cut inside a record, or with one bit flipped in a
// record, resumes to the -json summary and the log of the uninterrupted
// run, byte for byte. The uninterrupted log is exactly its 20-byte header
// plus one 29-byte record per job and variant.
func TestResumeFromCutLogs(t *testing.T) {
	const jobs, variants, header, record = 4, 2, 20, 29
	dir := t.TempDir()
	var csv bytes.Buffer
	if err := trace.Generate(trace.GenConfig{Jobs: jobs, Seed: 3, MaxStages: 6}).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(tracePath, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	run := func(name string, resume bool) (summary, log []byte, stderr string) {
		ck := filepath.Join(dir, name)
		args := []string{"-f", tracePath, "-variants", "fuxi,default", "-checkpoint-dir", ck,
			"-json", ck + ".json"}
		if resume {
			args = append(args, "-resume")
		}
		stderr = runReplay(t, args...)
		return read(ck + ".json"), read(filepath.Join(ck, "replay.ckpt")), stderr
	}
	wantSummary, wantLog, _ := run("full", false)
	if len(wantLog) != header+record*variants*jobs {
		t.Fatalf("log is %d bytes, want %d", len(wantLog), header+record*variants*jobs)
	}

	type cut struct {
		name      string
		log       []byte
		recovered int
	}
	var cuts []cut
	for k := 0; k <= variants*jobs; k++ {
		cuts = append(cuts, cut{fmt.Sprintf("boundary-%d", k), wantLog[:header+k*record], k})
	}
	for _, k := range []int{0, jobs, variants*jobs - 1} {
		cuts = append(cuts, cut{fmt.Sprintf("mid-record-%d", k), wantLog[:header+k*record+record/2], k})
		flipped := append([]byte(nil), wantLog...)
		flipped[header+k*record+5] ^= 0x10
		cuts = append(cuts, cut{fmt.Sprintf("bit-flip-%d", k), flipped, k})
	}
	for _, c := range cuts {
		ck := filepath.Join(dir, c.name)
		if err := os.MkdirAll(ck, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ck, "replay.ckpt"), c.log, 0o644); err != nil {
			t.Fatal(err)
		}
		summary, log, stderr := run(c.name, true)
		note := fmt.Sprintf("recovered %d of %d runs, dropped %d torn tail bytes",
			c.recovered, variants*jobs, len(c.log)-header-c.recovered*record)
		if !strings.Contains(stderr, "resumed from") || !strings.Contains(stderr, note) {
			t.Errorf("%s: resume note does not say %q:\n%s", c.name, note, stderr)
		}
		if !bytes.Equal(summary, wantSummary) {
			t.Errorf("%s: resumed summary differs from the uninterrupted one", c.name)
		}
		if !bytes.Equal(log, wantLog) {
			t.Errorf("%s: resumed log differs from the uninterrupted one", c.name)
		}
	}
}

// TestSliceMachinesUsage: a -slice-machines below 1 is a usage error,
// reported before any input is read.
func TestSliceMachinesUsage(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, m := range []string{"0", "-1"} {
		cmd := exec.Command(os.Args[0], "-f", missing, "-slice-machines", m)
		cmd.Env = append(os.Environ(), replayMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != cli.ExitUsage {
			t.Errorf("-slice-machines %s: %v, want exit %d\n%s", m, err, cli.ExitUsage, stderr.String())
		} else if !strings.Contains(stderr.String(), "-slice-machines") {
			t.Errorf("-slice-machines %s: error does not name the flag:\n%s", m, stderr.String())
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
