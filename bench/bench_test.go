package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"delaystage/internal/trace"
)

// TestMain lets the test binary stand in for the harness binary as a
// replay's spawn helper (see spawn.go).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "spawn" {
		os.Exit(spawnMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// buildForTest compiles the programs under test once per test binary.
func buildForTest(t *testing.T) programs {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := buildPrograms(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bins
}

// TestQuickSmoke runs every workload at about 1% of its size, traced, so
// both the end-to-end and the per-layer metric sets are produced, and
// requires every check to pass.
func TestQuickSmoke(t *testing.T) {
	bins := buildForTest(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rc := &runCtx{seed: 1, seconds: 0.1, trace: true, quick: true, bins: bins, work: t.TempDir()}
			oc, err := workloads[name](rc)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range oc.checks {
				if !c.ok {
					t.Errorf("check %s failed: %s", c.name, c.detail)
				}
			}
			if oc.failed != 0 || oc.attempted < 1 {
				t.Errorf("%d of %d operations failed", oc.failed, oc.attempted)
			}
			for _, trace := range []bool{false, true} {
				if _, err := report(oc, trace); err != nil {
					t.Errorf("trace=%v: %v", trace, err)
				}
			}
		})
	}
}

func TestScheddInputsDeterministic(t *testing.T) {
	gen := func(seed int64) *scheddInputs {
		in, err := genScheddInputs(scheddLight, seed, 400)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(1), gen(1), gen(2)
	flat := func(in *scheddInputs) []byte {
		var buf bytes.Buffer
		for _, p := range append(append(append([][]byte(nil), in.warmups...), in.posts...), in.sentinel) {
			buf.Write(p)
		}
		for _, u := range in.readU {
			buf.WriteString(formatFloat(u))
		}
		return buf.Bytes()
	}
	if !bytes.Equal(flat(a), flat(b)) {
		t.Error("same seed produced different requests")
	}
	if bytes.Equal(flat(a), flat(c)) {
		t.Error("different seeds produced identical requests")
	}
	// Every seed offers exactly the same simulated load.
	span := func(in *scheddInputs) float64 {
		return in.arrivals[len(in.arrivals)-1] - float64(len(in.warmups))*warmupGap
	}
	if d := span(a) - span(c); d > 1e-6*span(a) || -d > 1e-6*span(a) {
		t.Errorf("arrival spans differ: %v vs %v", span(a), span(c))
	}
}

func formatFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

func TestHorizonGuard(t *testing.T) {
	// 44,000 submissions at ρ=0.3 are ~2.9M simulated seconds of arrivals,
	// past the 30-day engine horizon; the generator must refuse rather than
	// let every later submission fail with a 500.
	if _, err := genScheddInputs(scheddLight, 1, 44000); err == nil {
		t.Fatal("a round past MaxTime was accepted")
	}
	if _, err := genScheddInputs(scheddLight, 1, 24000); err != nil {
		t.Fatalf("a 24,000-submission round was refused: %v", err)
	}
}

func TestReplayInputsDeterministic(t *testing.T) {
	bins := buildForTest(t)
	gen := func(seed int64) []byte {
		rc := &runCtx{seed: seed, seconds: 1, quick: true, bins: bins, work: t.TempDir()}
		in, err := genReplayInputs(rc, replayPlan)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, p := range append(in.traces, in.small) {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different traces")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical traces")
	}
	// replay-plan's rounds replay traces of their own; replay-ingest's
	// repeat the first round's.
	rc := &runCtx{quick: true}
	if p0, p1 := replayPlan.roundTraces(rc, 0), replayPlan.roundTraces(rc, 1); p0[0] == p1[0] || p1[len(p1)-1] != 2*len(p0)-1 {
		t.Errorf("replay-plan rounds replay traces %v and %v, want disjoint", p0, p1)
	}
	if i0, i1 := replayIngest.roundTraces(rc, 0), replayIngest.roundTraces(rc, 1); !slices.Equal(i0, i1) {
		t.Errorf("replay-ingest rounds replay traces %v and %v, want the same", i0, i1)
	}
}

func TestStratifiedComposition(t *testing.T) {
	const n = 1000
	want := composition(n)
	for _, seed := range []int64{3, 4} {
		pop := trace.Generate(trace.GenConfig{Jobs: 8 * n, Seed: seed})
		sel, err := stratified(pop, n)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]int{}
		for _, j := range sel.Jobs {
			got[stageBucket(len(j.Stages))]++
		}
		for b, c := range want {
			if got[b] != c {
				t.Errorf("seed %d bucket %d: %d jobs, want %d", seed, b, got[b], c)
			}
		}
		// Dealing keeps the traces' composition alike.
		var stages []int
		for _, part := range deal(sel, replayTraces) {
			s := 0
			for _, j := range part.Jobs {
				s += len(j.Stages)
			}
			stages = append(stages, s)
		}
		sort.Ints(stages)
		if lo, hi := stages[0], stages[len(stages)-1]; float64(hi-lo) > 0.05*float64(hi) {
			t.Errorf("seed %d: trace stage totals %v differ by more than 5%%", seed, stages)
		}
	}
}

// The metric tables and workload names in the code must match the
// benchmark definition in BENCHMARK.json.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
