package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delaystage/internal/golden"
	"delaystage/internal/trace"
)

// TestReplayGolden pins replay's stdout and -json summary for all four
// variants on a 40-job generated trace: exact planning, -approx-plan, and
// a fault plan with machine crashes, stragglers and speculation. Each run
// must be byte-identical at 1 and 4 shards. Run with -update to
// regenerate after an intended change.
func TestReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("six end-to-end replays")
	}
	dir := t.TempDir()
	var csv bytes.Buffer
	if err := trace.Generate(trace.GenConfig{Jobs: 40, Seed: 7}).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(tracePath, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		args []string
	}{
		{"exact", nil},
		{"approx-plan", []string{"-approx-plan"}},
		{"faults", []string{"-node-mttf", "4000", "-mttf-horizon", "1000", "-straggler-frac", "0.2", "-speculate",
			"-fault-rate", "0.02", "-max-retries", "2"}},
	}
	var got strings.Builder
	for _, r := range runs {
		var first string
		for _, shards := range []string{"1", "4"} {
			jsonPath := filepath.Join(dir, r.name+"-"+shards+".json")
			args := append([]string{"-f", tracePath, "-shards", shards, "-json", jsonPath}, r.args...)
			stdout, _ := runReplayOut(t, args...)
			js, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			out := "== " + strings.Join(append([]string{"replay"}, r.args...), " ") + " ==\n" + stdout + string(js)
			if first == "" {
				first = out
				got.WriteString(out)
			} else if out != first {
				t.Errorf("%s: -shards %s differs from -shards 1:\n got %s\nwant %s", r.name, shards, out, first)
			}
		}
	}
	golden.Check(t, "testdata/replay.golden", []byte(got.String()))
}
