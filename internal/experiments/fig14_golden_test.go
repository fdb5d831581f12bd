package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"delaystage/internal/golden"
)

// TestFig14Golden pins Fig. 14 / Table 4 on a 40-job trace: the rendered
// text and the Fig14Result JSON, every planning-work counter included,
// at parallelism 1 and 4. Run with -update to regenerate after an
// intended change.
func TestFig14Golden(t *testing.T) {
	var got []byte
	for _, par := range []int{1, 4} {
		var w bytes.Buffer
		r, err := Fig14(Config{TraceJobs: 40, Seed: 7, Parallelism: par, W: &w})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		// The cut-drain and reused-scan counts must be non-zero, so the
		// golden pins the drain cutoff and the scan reuse at work, and at
		// most the forked evaluations (a reused scan forks at least one).
		if e := r.Eval; e.CutEvals == 0 || e.CutEvals > e.ForkedEvals {
			t.Errorf("parallelism %d: %d cut drains of %d forked evaluations", par, e.CutEvals, e.ForkedEvals)
		}
		if e := r.Eval; e.ReusedScans == 0 || e.ReusedScans > e.ForkedEvals {
			t.Errorf("parallelism %d: %d reused scans for %d forked evaluations", par, e.ReusedScans, e.ForkedEvals)
		}
		js, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out := append(w.Bytes(), js...)
		out = append(out, '\n')
		if got == nil {
			got = out
		} else if !bytes.Equal(out, got) {
			t.Errorf("parallelism %d: output differs from parallelism 1", par)
		}
	}
	golden.Check(t, "testdata/fig14.golden", got)
}

// TestFig14IntrospectionHooks: Fig. 14 announces one grid of n jobs per
// variant through OnGrid and reports each of the 4·n replayed jobs
// through OnCell; Fig. 10 and the fault sweep announce their grids the
// same way. At any parallelism every grid's cells are all reported before
// the next grid is announced, and OnCell runs serially on the goroutine
// that runs the grid: the calls are counted in plain ints, so under -race
// two overlapping calls are a reported data race.
func TestFig14IntrospectionHooks(t *testing.T) {
	const n = 12
	for _, tc := range []struct {
		name  string
		run   func(Config) error
		grids []int
	}{
		{"Fig14", func(c Config) error { _, err := Fig14(c); return err }, []int{n, n, n, n}},
		// One cell per workload × rep.
		{"Fig10", func(c Config) error { _, err := Fig10(c); return err }, []int{len(workloadNames) * 2}},
		// One cell per (fault point, workload), then one per (machine
		// point, mitigation off/on, workload).
		{"FaultSweep", func(c Config) error { _, err := FaultSweep(c); return err },
			[]int{len(faultSweepGrid) * len(workloadNames), len(machineSweepGrid) * 2 * len(workloadNames)}},
	} {
		for _, par := range []int{1, 4} {
			caller := goid()
			var grids, cells []int
			cfg := Config{Scale: 0.1, Nodes: 10, TraceJobs: n, Reps: 2, Seed: 7, Parallelism: par,
				OnGrid: func(c int) { grids, cells = append(grids, c), append(cells, 0) },
				OnCell: func() {
					if id := goid(); id != caller {
						t.Errorf("%s parallelism %d: OnCell on goroutine %s, want %s", tc.name, par, id, caller)
					}
					cells[len(cells)-1]++
				}}
			if err := tc.run(cfg); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(grids, tc.grids) {
				t.Errorf("%s parallelism %d: OnGrid calls %v, want %v", tc.name, par, grids, tc.grids)
			}
			if !reflect.DeepEqual(cells, grids) {
				t.Errorf("%s parallelism %d: OnCell calls per grid %v, want %v", tc.name, par, cells, grids)
			}
		}
	}
}

// goid returns the current goroutine's id, read off its stack header
// ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}
