package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens in testdata/")

const fig14GoldenPath = "testdata/fig14.golden"

// TestFig14Golden pins Fig. 14 / Table 4 on a 40-job trace: the rendered
// text and the Fig14Result JSON, evaluation counters included, at
// parallelism 1 and 4. Run with -update to regenerate after an intended
// change.
func TestFig14Golden(t *testing.T) {
	var got []byte
	for _, par := range []int{1, 4} {
		var w bytes.Buffer
		r, err := Fig14(Config{TraceJobs: 40, Seed: 7, Parallelism: par, W: &w})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
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
	if *update {
		if err := os.WriteFile(fig14GoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fig14GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Fig. 14 output differs from %s:\n got %s\nwant %s", fig14GoldenPath, got, want)
	}
}

// TestFig14IntrospectionHooks: Fig. 14 announces one grid of n jobs per
// variant through OnGrid and reports each of the 4·n replayed jobs through
// OnCell, at any parallelism.
func TestFig14IntrospectionHooks(t *testing.T) {
	const n = 12
	for _, par := range []int{1, 4} {
		var grids []int
		var cells atomic.Int64
		cfg := Config{TraceJobs: n, Seed: 7, Parallelism: par,
			OnGrid: func(c int) { grids = append(grids, c) },
			OnCell: func() { cells.Add(1) }}
		if _, err := Fig14(cfg); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grids, []int{n, n, n, n}) {
			t.Errorf("parallelism %d: OnGrid calls %v, want one grid of %d per variant", par, grids, n)
		}
		if got := cells.Load(); got != 4*n {
			t.Errorf("parallelism %d: %d OnCell calls, want %d", par, got, 4*n)
		}
	}
}
