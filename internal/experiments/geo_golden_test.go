package experiments

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"delaystage/internal/golden"
)

// TestGeoGolden pins the geo extension at `experiments -only geo`'s
// configuration: the rendered tables and every GeoResult row, floats as
// their IEEE bits. Run with -update to regenerate after an intended
// change.
func TestGeoGolden(t *testing.T) {
	var w bytes.Buffer
	r, err := GeoExtension(Config{Seed: 1, W: &w})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&w, "wan=%016x stock=%016x delay=%016x gain=%016x util=%016x delays=%d\n",
			math.Float64bits(row.WANMBps), math.Float64bits(row.StockJCT), math.Float64bits(row.DelayJCT),
			math.Float64bits(row.GainP), math.Float64bits(row.WANUtilP), row.DelayCount)
	}
	golden.Check(t, "testdata/geo.golden", w.Bytes())
}
