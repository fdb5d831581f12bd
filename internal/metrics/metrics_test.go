package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("std %v, want 2", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, cs := range cases {
		if got := c.At(cs.x); math.Abs(got-cs.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", cs.x, got, cs.want)
		}
	}
	if q := c.Quantile(0.5); math.Abs(q-2.5) > 1e-12 {
		t.Errorf("Quantile(0.5) = %v, want 2.5 (interpolated)", q)
	}
	if c.Mean() != 2.5 {
		t.Errorf("Mean = %v", c.Mean())
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n%50)+1)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		c := NewCDF(xs)
		prev := -1.0
		for x := 0.0; x <= 100; x += 5 {
			v := c.At(x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFTable(t *testing.T) {
	c := NewCDF([]float64{1, 2})
	out := c.Table([]float64{1, 2})
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "100.0%") {
		t.Fatalf("unexpected table:\n%s", out)
	}
}

func TestResampleStepConstant(t *testing.T) {
	pts := []StepPoint{{T: 0, V: 10}}
	bins := ResampleStep(pts, 0, 10, 2)
	if len(bins) != 5 {
		t.Fatalf("got %d bins", len(bins))
	}
	for i, b := range bins {
		if math.Abs(b-10) > 1e-9 {
			t.Fatalf("bin %d = %v, want 10", i, b)
		}
	}
}

func TestResampleStepTransitions(t *testing.T) {
	// V=0 on [0,5), V=10 on [5,10): bin [4,6) must average 5.
	pts := []StepPoint{{T: 0, V: 0}, {T: 5, V: 10}}
	bins := ResampleStep(pts, 4, 6, 2)
	if len(bins) != 1 || math.Abs(bins[0]-5) > 1e-9 {
		t.Fatalf("bins = %v, want [5]", bins)
	}
}

func TestResampleStepEdge(t *testing.T) {
	if ResampleStep(nil, 0, 10, 1) != nil {
		t.Error("nil points must give nil")
	}
	if ResampleStep([]StepPoint{{0, 1}}, 0, 0, 1) != nil {
		t.Error("empty window must give nil")
	}
	if ResampleStep([]StepPoint{{0, 1}}, 0, 10, 0) != nil {
		t.Error("zero width must give nil")
	}
}

func TestResampleConservesIntegralProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts []StepPoint
		tcur := 0.0
		for i := 0; i < 10; i++ {
			pts = append(pts, StepPoint{T: tcur, V: rng.Float64() * 50})
			tcur += 0.5 + float64(rng.Float64()*3)
		}
		end := tcur
		width := 0.9
		bins := ResampleStep(pts, 0, end, width)
		// Integral over bins ≈ exact step integral.
		exact := 0.0
		for i := range pts {
			segEnd := end
			if i+1 < len(pts) {
				segEnd = pts[i+1].T
			}
			exact += float64(pts[i].V * (segEnd - pts[i].T))
		}
		approxInt := 0.0
		for i, b := range bins {
			binStart := float64(float64(i) * width)
			binEnd := math.Min(binStart+width, end)
			_ = binEnd
			approxInt += float64(b * width)
		}
		// Last bin may extend past end; allow small slack.
		return math.Abs(approxInt-exact) < float64(exact*0.02)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedMeanStd(t *testing.T) {
	// V=0 for 5s, V=10 for 5s → mean 5, std 5.
	pts := []StepPoint{{T: 0, V: 0}, {T: 5, V: 10}}
	mean, std := TimeWeightedMeanStd(pts, 0, 10)
	if math.Abs(mean-5) > 1e-9 || math.Abs(std-5) > 1e-9 {
		t.Fatalf("mean/std = %v/%v, want 5/5", mean, std)
	}
	mean, std = TimeWeightedMeanStd(pts, 5, 10)
	if math.Abs(mean-10) > 1e-9 || std > 1e-9 {
		t.Fatalf("windowed mean/std = %v/%v, want 10/0", mean, std)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	if m, s := TimeWeightedMeanStd(nil, 0, 10); m != 0 || s != 0 {
		t.Fatal("nil series must give zeros")
	}
	if m, s := TimeWeightedMeanStd([]StepPoint{{0, 5}}, 10, 10); m != 0 || s != 0 {
		t.Fatal("empty window must give zeros")
	}
}

func TestRenderGantt(t *testing.T) {
	bars := []GanttBar{
		{Label: "Stage 1", Start: 0, Split: 10, End: 30},
		{Label: "Stage 2", Start: 10, Split: 20, End: 40},
	}
	out := RenderGantt(bars, 40)
	if !strings.Contains(out, "Stage 1") || !strings.Contains(out, "░") || !strings.Contains(out, "█") {
		t.Fatalf("unexpected gantt:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // 2 bars + axis
		t.Fatalf("got %d lines", len(lines))
	}
}

func TestRenderGanttEmpty(t *testing.T) {
	if out := RenderGantt(nil, 40); out != "" {
		t.Fatalf("empty gantt should be empty, got %q", out)
	}
}

func TestSparkline(t *testing.T) {
	out := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(out)) != 4 {
		t.Fatalf("sparkline length %d, want 4", len([]rune(out)))
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline must be empty")
	}
	flat := Sparkline([]float64{0, 0})
	if len([]rune(flat)) != 2 {
		t.Fatal("flat sparkline wrong length")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20}
	if got := Percentile(xs, 50); math.Abs(got-15) > 1e-9 {
		t.Fatalf("P50 of {10,20} = %v, want 15", got)
	}
}

func TestGanttClampsSplit(t *testing.T) {
	// Split beyond End must clamp, Start beyond Split must clamp.
	out := RenderGantt([]GanttBar{{Label: "x", Start: 5, Split: 20, End: 10}}, 20)
	if !strings.Contains(out, "x") {
		t.Fatalf("bar missing: %s", out)
	}
}

// Quantile must interpolate exactly like Percentile: the old truncating
// implementation returned 2 for Quantile(0.5) of {1,2} instead of 1.5,
// biasing every reported P50/P90/P99 high.
func TestQuantileInterpolates(t *testing.T) {
	c := NewCDF([]float64{1, 2})
	if q := c.Quantile(0.5); math.Abs(q-1.5) > 1e-12 {
		t.Fatalf("Quantile(0.5) of {1,2} = %v, want 1.5", q)
	}
}

// Quantile(p/100) ≡ Percentile(p) on random samples.
func TestQuantileMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Float64()*1000) - 200
		}
		c := NewCDF(xs)
		for p := 0.0; p <= 100; p += 2.5 {
			q, pc := c.Quantile(p/100), Percentile(xs, p)
			if math.Abs(q-pc) > 1e-9*(1+math.Abs(pc)) {
				t.Fatalf("trial %d: Quantile(%v)=%v but Percentile(%v)=%v", trial, p/100, q, p, pc)
			}
		}
	}
}

// Trace-scale makespans at narrow widths: the %.0fs axis label exceeds the
// chart width, which used to drive strings.Repeat negative and panic.
func TestRenderGanttHugeMakespanNarrowWidth(t *testing.T) {
	bars := []GanttBar{{Label: "s", Start: 0, Split: 1e8, End: 2e9}}
	out := RenderGantt(bars, 10)
	if !strings.Contains(out, "2000000000s") {
		t.Fatalf("axis label missing:\n%s", out)
	}
}

// Bars outside the axis range (negative or past-maxT starts) must clamp,
// not panic.
func TestRenderGanttOutOfRangeBars(t *testing.T) {
	bars := []GanttBar{
		{Label: "neg", Start: -5, Split: -2, End: 10},
		{Label: "ok", Start: 0, Split: 5, End: 10},
	}
	out := RenderGantt(bars, 20)
	if !strings.Contains(out, "neg") || !strings.Contains(out, "ok") {
		t.Fatalf("bars missing:\n%s", out)
	}
}

func TestSparklineNegativeAndSinglePoint(t *testing.T) {
	// Negative values must clamp to the lowest tick, not index out of range.
	out := Sparkline([]float64{-5, 0, 5})
	if len([]rune(out)) != 3 {
		t.Fatalf("sparkline length %d, want 3", len([]rune(out)))
	}
	if one := Sparkline([]float64{7}); len([]rune(one)) != 1 {
		t.Fatalf("single-point sparkline %q", one)
	}
	if allNeg := Sparkline([]float64{-3, -1}); len([]rune(allNeg)) != 2 {
		t.Fatalf("all-negative sparkline %q", allNeg)
	}
}

func TestResampleStepNegativeValues(t *testing.T) {
	// Negative step values resample like any other value.
	pts := []StepPoint{{T: 0, V: -4}}
	bins := ResampleStep(pts, 0, 4, 2)
	if len(bins) != 2 || math.Abs(bins[0]+4) > 1e-9 || math.Abs(bins[1]+4) > 1e-9 {
		t.Fatalf("bins = %v, want [-4 -4]", bins)
	}
}

func TestResampleStepSinglePointPartialWindow(t *testing.T) {
	// A single point starting mid-window fills only the covered part.
	pts := []StepPoint{{T: 5, V: 10}}
	bins := ResampleStep(pts, 0, 10, 5)
	if len(bins) != 2 || math.Abs(bins[0]) > 1e-9 || math.Abs(bins[1]-10) > 1e-9 {
		t.Fatalf("bins = %v, want [0 10]", bins)
	}
}

func TestCDFQuantileBounds(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	if c.Quantile(-1) != 1 || c.Quantile(2) != 3 {
		t.Fatalf("quantile clamping broken: %v %v", c.Quantile(-1), c.Quantile(2))
	}
	empty := NewCDF(nil)
	if empty.At(5) != 0 || empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty CDF must return zeros")
	}
}
