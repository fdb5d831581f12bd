package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {1, 0.5},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty p50 = %v, want NaN", got)
	}
}

// The reference is Python's statistics.quantiles(xs, n=4);
// these expectations are its outputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // extrapolated, as Python does
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestUnitMediansOfRescaledRounds(t *testing.T) {
	rows := [][]float64{
		{5, 9, 4},
		{7, 3, 4},
		{6, 8, 2},
	}
	// Round 1 ran at half the reference speed: its times count half.
	scaled := rescale(rows, [][]float64{repeat(1, 3), repeat(0.5, 3), repeat(1, 3)})
	got := unitMedians(scaled)
	want := []float64{5, 8, 2}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("unitMedians = %v, want %v", got, want)
		}
	}
	if rows[1][0] != 7 {
		t.Error("rescale modified its input")
	}
	if got := perRound(rows, 2); got[0] != 9 || got[2] != 8 {
		t.Errorf("perRound = %v, want [9 7 8]", got)
	}
}

// A unit's calibration scale is the reference kernel time over the median
// of the kernel times in the gaps before and after it, so a host running
// at half speed halves every time. An events-only calibration reads the
// event loop's times alone.
func TestCalibrationScale(t *testing.T) {
	r, e := refKernelMS, refEventsMS
	// at returns a kernel time x times the reference, split so that the
	// event loop alone reads y times its reference.
	at := func(x, y float64) kernelTime { return kernelTime{table: x*r - y*e, events: y * e} }
	c := calibration{gaps: [][]kernelTime{{at(2, 1), at(2, 1), at(9, 1)}, {at(2, 1), at(1, 1), at(2, 1)}, {at(1, 1), at(1, 1), at(1, 1)}}}
	if got := c.scales(2); got[0] != 0.5 || got[1] != 1 {
		t.Errorf("scales = %v, want [0.5 1]", got)
	}
	c = calibration{eventsOnly: true, gaps: [][]kernelTime{
		{at(2, 1), at(2, 1), at(2, 1)}, {at(2, 1), at(2, 2), at(2, 2)}, {at(2, 2), at(2, 2), at(2, 2)}}}
	if got := c.scales(2); got[0] != 1 || got[1] != 0.5 {
		t.Errorf("events-only scales = %v, want [1 0.5]", got)
	}
	if k := kernel(); !(k.table > 0 && k.events > 0) {
		t.Errorf("kernel times %+v, want > 0", k)
	}
	// An open loop's scale weighs the table part, the walk and the JSON
	// by 1/4, 1/4 and 1/2: a JSON four times slower alone halves it.
	tab := func(x float64) []kernelTime { return []kernelTime{{table: x * refTableMS, events: 5}} }
	wake := func(walk, js float64) []wakeTime {
		return []wakeTime{{walk: walk * refWakeWalkMS, json: js * refWakeJSONMS}}
	}
	c = calibration{wake: true, gaps: [][]kernelTime{tab(1), tab(1), tab(2)},
		wakes: [][]wakeTime{wake(1, 4), wake(1, 4), wake(2, 2)}}
	got := c.scales(2)
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-math.Pow(1.5, -0.5)/math.Pow(3, 0.5)) > 1e-12 {
		t.Errorf("wake scales = %v, want [0.5 %v]", got, math.Pow(1.5, -0.5)/math.Pow(3, 0.5))
	}
	if got, want := c.kernelScale(0), refKernelMS/(refTableMS+5); math.Abs(got-want) > 1e-12 {
		t.Errorf("kernelScale = %v, want %v (the whole kernel, no probes)", got, want)
	}
	kernel()
	if p := wakeProbe(); !(p.walk > 0 && p.json > 0) {
		t.Errorf("wake probe times %+v, want > 0", p)
	}
}

// An open-loop run keeps its least-stolen rounds and makes another while
// those include a round over stealLimit; a closed loop never does.
func TestLeastStolenRounds(t *testing.T) {
	rds := []*scheddRound{{stolen: 0.20}, {stolen: 0.01}, {stolen: 0.30}, {stolen: 0}}
	if got := leastStolen(rds, 2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("leastStolen = %v, want [1 3]", got)
	}
	rc := &runCtx{seconds: 1000}
	now := time.Now()
	if retake(rc, scheddLight, rds, 2, now) {
		t.Error("retake with two clean rounds kept, want false")
	}
	if !retake(rc, scheddLight, rds, 3, now) {
		t.Error("no retake with a stolen round kept, want true")
	}
	if retake(rc, scheddBusy, rds, 3, now) {
		t.Error("retake in a closed loop, want false")
	}
	if retake(rc, scheddLight, rds, 3, now.Add(-2000*time.Second)) {
		t.Error("retake past the time limit, want false")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}
